package nbody

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/hot"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfasst"
	"repro/internal/telemetry"
)

// ErrCanceled is the typed cancellation sentinel of RunSpaceTimeCtx:
// when the context is canceled (or its deadline expires) the run stops
// at the next PFASST block boundary and returns an error wrapping this
// sentinel — match with errors.Is. Cancellation never abandons a
// half-advanced block: the committed block-start state (and its grid
// checkpoint, when Resilience.CheckpointDir is set — the same layout
// at every PS) remains a consistent resume point.
var ErrCanceled = pfasst.ErrCanceled

// RunStats is a merged telemetry snapshot of a run: counters summed
// over the ranks, gauges and per-phase timer maxima taken across them
// (so a timer's Max is the parallel time of that phase). See
// internal/telemetry for the snapshot structure and emitters
// (WriteJSON, WriteCSV, Fprint).
type RunStats = telemetry.Snapshot

// TimerStat is the per-phase entry of a RunStats timer.
type TimerStat = telemetry.TimerStat

// SetPprofLabels toggles pprof goroutine labeling of telemetry phase
// spans: when enabled, CPU profiles collected during a run attribute
// samples to a "phase" label (hot.traverse, pfasst.iteration, ...).
func SetPprofLabels(on bool) { telemetry.SetPprofLabels(on) }

// SpaceTimeConfig parameterizes a PT×PS space-time parallel run (the
// paper's headline configuration; Fig. 2).
type SpaceTimeConfig struct {
	// PT is the number of parallel time slices, PS the number of
	// spatial ranks per slice. The run uses PT·PS in-process ranks.
	PT, PS int
	// ThetaFine and ThetaCoarse are the MAC parameters of the fine and
	// coarse PFASST levels (paper: 0.3 / 0.6).
	ThetaFine, ThetaCoarse float64
	// Iterations and CoarseSweeps select PFASST(X, Y, PT) (paper: 2, 2).
	Iterations, CoarseSweeps int
	// Tol, when positive, stops PFASST iterations early once the
	// slice-end updates fall below it (adaptive mode).
	Tol float64
	// Threads is the per-rank traversal worker count (the worker half
	// of PEPC's Pthreads layer); ≤1 is single-threaded.
	Threads int
	// Balance enables cross-rank dynamic load balancing: the sample-
	// sort decomposition places its splitters at equal-work quantiles
	// using the previous evaluation's per-particle interaction counts,
	// so clustered distributions stop serializing on the heaviest
	// rank. Off by default (the decomposition then depends on particle
	// positions only, keeping guarded redos bitwise reproducible).
	Balance bool
	// Modeled enables the Blue Gene/P virtual clocks; ModeledSeconds of
	// the result is then meaningful.
	Modeled bool
	// Telemetry enables per-rank metric collection; the merged snapshot
	// is returned in SpaceTimeStats.Run. The disabled path costs
	// nothing on the evaluation hot loops.
	Telemetry bool
	// Resilience configures fault injection and fault-tolerant time
	// stepping. The zero value runs the plain solver with no fault
	// hooks (a single nil check on the hot paths).
	Resilience ResilienceConfig
	// Guard configures silent-data-corruption detection and the
	// adaptive recovery ladder (numerical guardrails). The zero value
	// runs without detectors at zero cost.
	Guard GuardConfig
	// OnBlock, when non-nil, is invoked with the index of each PFASST
	// block about to run, from exactly one rank, before the run's
	// Context is polled at that boundary. A hook that cancels the
	// RunSpaceTimeCtx context stops the run at that exact block,
	// deterministically — the job server's chaos plan and progress
	// reporting build on this. The hook must not block.
	OnBlock func(block int)
}

// GuardConfig is the façade's numerical-guardrail block: optional
// seeded memory-fault injection plus the detect/recover ladder of
// package guard (state checksums, ABFT tree checks, invariant
// monitors; recompute → rollback → extra sweeps → typed abort).
type GuardConfig struct {
	// Enabled turns the guard layer on. Works at any PS: with PS > 1
	// the ladder's redo/rollback/abort verdicts are agreed over the
	// spatial communicator and the physics invariants are monitored as
	// global sums (DESIGN.md §15). Composes with Resilience.Enabled at
	// any PS — corruption verdicts and crash verdicts fold into the
	// same per-block grid agreement, so a guarded redo and a
	// concurrent rank crash interleave without tearing a block
	// (DESIGN.md §12).
	Enabled bool
	// FlipPlan is a fault.ParseMem spec describing seeded bit flips,
	// e.g. "rate=5e-4,in=state+tree,bits=52-63" (domains: state, tree,
	// block, ckpt; add ",sticky" for persistent faults that exhaust
	// the ladder). Empty injects nothing — the detectors still guard
	// against real corruption.
	FlipPlan string
	// FlipSeed seeds the plan's deterministic per-word verdicts.
	FlipSeed int64
	// MaxRecompute bounds tree rebuilds and block redos, MaxRollback
	// bounds state restores from the shadow copy, ExtraSweeps is added
	// to the fine sweep count from the second block redo on. Zero
	// selects the package defaults.
	MaxRecompute, MaxRollback, ExtraSweeps int
	// CircTol, ImpulseTol and AngularTol override the relative
	// tolerances of the physics invariant monitors (zero = package
	// defaults). At PS > 1 the monitors compare global sums, whose
	// clean drift includes the spatial decomposition's discretization
	// differences — loosen them for large grids (SCALING.md).
	CircTol, ImpulseTol, AngularTol float64
}

// ResilienceConfig is the facade's resilience block: a seeded fault
// plan to inject, and the recovery machinery to survive it.
type ResilienceConfig struct {
	// Enabled turns on resilient time stepping (deadline receives,
	// block agreement commits, shrink-and-redo crash recovery,
	// serial-SDC degraded fallback). One protocol at every PS: a time
	// slice that died out is dropped and the run continues PT − 1 wide,
	// a thinned slice narrows the spatial width and the particle state
	// is re-decomposed onto it (DESIGN.md §11). Fault injection without
	// Enabled exercises the plain solver, which absorbs transient plans
	// but dies on crashes.
	Enabled bool
	// FaultPlan is a fault.Parse spec ("drop=0.05,crash=1@iter:1", see
	// internal/fault); empty injects nothing.
	FaultPlan string
	// FaultSeed seeds the plan's deterministic per-message verdicts.
	FaultSeed int64
	// RecvTimeout bounds every pipelined receive (0 = default).
	RecvTimeout time.Duration
	// CheckpointDir persists committed block state for crash-safe
	// restarts; Resume continues from the checkpoint found there: a
	// directory of per-column NBLV shards (one at PS = 1) under one
	// checksummed manifest, grid.nblm, restorable onto a run with a
	// DIFFERENT PT×PS (resume and shrink-recovery share the
	// re-decomposition path). A directory without a manifest is "no
	// checkpoint" — including one that holds only the single NBLV file
	// PS = 1 runs wrote before the layouts were merged.
	CheckpointDir string
	Resume        bool
	// FallbackSweeps is the serial-SDC sweep count of the degraded
	// tail (0 = default).
	FallbackSweeps int
	// MaxBlockRetries bounds consecutive redo attempts of one block
	// that make no progress: recovery rounds without a newly agreed
	// rank death (0 = default).
	MaxBlockRetries int
}

// DefaultSpaceTime returns the paper's PFASST(2,2,·) configuration.
func DefaultSpaceTime(pt, ps int) SpaceTimeConfig {
	return SpaceTimeConfig{
		PT: pt, PS: ps,
		ThetaFine: 0.3, ThetaCoarse: 0.6,
		Iterations: 2, CoarseSweeps: 2,
	}
}

// SpaceTimeStats summarizes a space-time run.
type SpaceTimeStats struct {
	// ModeledSeconds is the modeled parallel wall-clock time (zero
	// unless Modeled was set).
	ModeledSeconds float64
	// LastSliceResidual is the PFASST iteration-difference residual on
	// the final time slice.
	LastSliceResidual float64
	// FineEvals and CoarseEvals count collective force evaluations per
	// rank of the last slice.
	FineEvals, CoarseEvals int64
	// Run is the merged telemetry snapshot of all PT·PS ranks (nil
	// unless SpaceTimeConfig.Telemetry was set).
	Run *RunStats
}

// RunSpaceTime advances the system from t0 to t1 in nsteps steps
// (nsteps must be a multiple of cfg.PT) using the full space-time
// parallel solver: PEPC-style parallel trees in space, PFASST in time.
// It returns the advanced system (same particle order as the input)
// and run statistics.
func RunSpaceTime(cfg SpaceTimeConfig, sys *System, t0, t1 float64, nsteps int) (*System, SpaceTimeStats, error) {
	return RunSpaceTimeCtx(context.Background(), cfg, sys, t0, t1, nsteps)
}

// RunSpaceTimeCtx is RunSpaceTime with cooperative cancellation: when
// ctx is canceled the run stops at the next block boundary on every
// rank and returns an error wrapping ErrCanceled (and the context's
// cause). A context that can never be canceled (Background) takes the
// exact code path of RunSpaceTime.
func RunSpaceTimeCtx(ctx context.Context, cfg SpaceTimeConfig, sys *System, t0, t1 float64, nsteps int) (*System, SpaceTimeStats, error) {
	if cfg.PT < 1 || cfg.PS < 1 {
		return nil, SpaceTimeStats{}, fmt.Errorf("nbody: PT=%d, PS=%d invalid", cfg.PT, cfg.PS)
	}
	ccfg := core.Default(cfg.PT, cfg.PS)
	ccfg.ThetaFine = cfg.ThetaFine
	ccfg.ThetaCoarse = cfg.ThetaCoarse
	if cfg.Iterations > 0 {
		ccfg.Iterations = cfg.Iterations
	}
	if cfg.CoarseSweeps > 0 {
		ccfg.CoarseSweeps = cfg.CoarseSweeps
	}
	ccfg.Tol = cfg.Tol
	ccfg.Threads = cfg.Threads
	ccfg.Balance = cfg.Balance
	var model machine.CostModel
	if cfg.Modeled {
		model = machine.BlueGeneP()
		ccfg.Model = &model
	}

	rz := cfg.Resilience
	var plan *fault.Plan
	var err error
	if rz.FaultPlan != "" {
		plan, err = fault.Parse(rz.FaultPlan, rz.FaultSeed)
		if err != nil {
			return nil, SpaceTimeStats{}, err
		}
		if !plan.Transient() && !rz.Enabled {
			// A crash can only be survived by the resilient loop (the
			// grid recovery protocol: shrink + re-decomposition).
			return nil, SpaceTimeStats{}, fmt.Errorf("nbody: fault plan %q injects a crash; set Resilience.Enabled", rz.FaultPlan)
		}
	}
	if !rz.Enabled && (rz.CheckpointDir != "" || rz.Resume) {
		return nil, SpaceTimeStats{}, fmt.Errorf("nbody: Resilience.CheckpointDir/Resume set without Resilience.Enabled: no checkpoint would be written or read")
	}
	if rz.Resume && rz.CheckpointDir == "" {
		return nil, SpaceTimeStats{}, fmt.Errorf("nbody: Resilience.Resume set without Resilience.CheckpointDir")
	}
	if rz.Enabled {
		ccfg.Resilience = pfasst.Resilience{
			Enabled:         true,
			RecvTimeout:     rz.RecvTimeout,
			CheckpointDir:   rz.CheckpointDir,
			Resume:          rz.Resume,
			FallbackSweeps:  rz.FallbackSweeps,
			MaxBlockRetries: rz.MaxBlockRetries,
		}
	}

	gc := cfg.Guard
	if !gc.Enabled && gc.FlipPlan != "" {
		return nil, SpaceTimeStats{}, fmt.Errorf("nbody: Guard.FlipPlan %q set without Guard.Enabled", gc.FlipPlan)
	}
	if gc.Enabled {
		pol := guard.Policy{
			Enabled:      true,
			MaxRecompute: gc.MaxRecompute,
			MaxRollback:  gc.MaxRollback,
			ExtraSweeps:  gc.ExtraSweeps,
			CircTol:      gc.CircTol,
			ImpulseTol:   gc.ImpulseTol,
			AngularTol:   gc.AngularTol,
		}
		if gc.FlipPlan != "" {
			mp, err := fault.ParseMem(gc.FlipPlan, gc.FlipSeed)
			if err != nil {
				return nil, SpaceTimeStats{}, err
			}
			pol.Mem = mp
		}
		ccfg.Guard = pol
	}
	// A context that cannot be canceled (nil Done channel) leaves Ctx
	// unset, so the ctx-free wrapper runs the historical code path byte
	// for byte — no extra per-block agreement or broadcast rounds.
	if ctx != nil && ctx.Done() != nil {
		ccfg.Ctx = ctx
	}
	ccfg.OnBlock = cfg.OnBlock

	out := sys.Clone()
	var mu sync.Mutex
	var stats SpaceTimeStats
	var merged RunStats
	statsSlice := -1

	runner := func(w *mpi.Comm) error {
		rcfg := ccfg
		if cfg.Telemetry {
			rcfg.Tel = telemetry.New()
		}
		res, err := core.RunSpaceTime(w, rcfg, sys, t0, t1, nsteps)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if rcfg.Tel != nil {
			merged.Merge(rcfg.Tel.Snapshot())
		}
		// Every time slice ends with the identical advanced state (the
		// block-end broadcast invariant), so in resilient mode any
		// surviving slice may write the output — the nominal writer may
		// have been the crashed rank. The plain path keeps its single
		// writer (slice PT−1). Ranks the grid-resilient path retired
		// after a shrink hold no share; the decomposition is indexed by
		// the FINAL spatial width, which recovery may have reduced.
		if res.Participated && (res.TimeSlice == cfg.PT-1 || rz.Enabled) {
			lo, _ := hot.BlockRange(sys.N(), res.SpatialIndex, res.SpatialRanks)
			copy(out.Particles[lo:lo+res.Local.N()], res.Local.Particles)
			if res.SpatialIndex == 0 && res.TimeSlice > statsSlice {
				statsSlice = res.TimeSlice
				if n := len(res.PFASST.IterDiffs); n > 0 {
					stats.LastSliceResidual = res.PFASST.IterDiffs[n-1]
				}
				stats.FineEvals = res.FineEvals
				stats.CoarseEvals = res.CoarseEvals
			}
		}
		return nil
	}

	opts := mpi.Options{Timed: cfg.Modeled}
	if cfg.Modeled {
		opts.TM = mpi.BlueGeneP()
	}
	if plan != nil && !plan.Empty() {
		opts.Fault = plan
	}
	stats.ModeledSeconds, err = mpi.RunOpts(cfg.PT*cfg.PS, opts, runner)
	if !cfg.Modeled {
		stats.ModeledSeconds = 0
	}
	if err != nil && plan != nil && !plan.Transient() {
		// Planned crashes surface as ErrInjectedCrash from the dead
		// rank; the run succeeded if the survivors reported nothing
		// else and produced the output.
		err = filterInjectedCrashes(err)
		if err == nil && statsSlice < 0 {
			err = fmt.Errorf("nbody: no surviving rank produced output")
		}
	}
	if err != nil && errors.Is(err, ErrCanceled) {
		// Every rank reports the same block-boundary cancellation;
		// collapse the PT·PS-way join to one typed error.
		return nil, SpaceTimeStats{}, fmt.Errorf("nbody: %w", firstCanceled(err))
	}
	if err != nil {
		return nil, SpaceTimeStats{}, err
	}
	if cfg.Telemetry {
		stats.Run = &merged
	}
	return out, stats, nil
}

// firstCanceled returns the first part of a joined rank error that
// wraps ErrCanceled (the parts are near-identical across ranks, so
// reporting one beats concatenating PT·PS copies).
func firstCanceled(err error) error {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			if errors.Is(e, ErrCanceled) {
				return e
			}
		}
	}
	return err
}

// filterInjectedCrashes strips ErrInjectedCrash parts from a joined
// rank error: nil when every part was a planned crash, the remaining
// errors otherwise.
func filterInjectedCrashes(err error) error {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		if errors.Is(err, mpi.ErrInjectedCrash) {
			return nil
		}
		return err
	}
	var rest []error
	for _, e := range joined.Unwrap() {
		if !errors.Is(e, mpi.ErrInjectedCrash) {
			rest = append(rest, e)
		}
	}
	return errors.Join(rest...)
}

// RunSpaceParallel advances the system with the purely space-parallel
// baseline: time-serial SDC(sweeps) over ps parallel tree ranks at
// θ = theta. It returns the advanced system and, when modeled is set,
// the modeled parallel wall-clock seconds.
func RunSpaceParallel(ps int, theta float64, sweeps int, modeled bool,
	sys *System, t0, t1 float64, nsteps int) (*System, float64, error) {
	if ps < 1 {
		return nil, 0, fmt.Errorf("nbody: ps %d < 1", ps)
	}
	ccfg := core.Default(1, ps)
	ccfg.ThetaFine = theta
	var model machine.CostModel
	if modeled {
		model = machine.BlueGeneP()
		ccfg.Model = &model
	}
	out := sys.Clone()
	runner := func(w *mpi.Comm) error {
		lo, hi := hot.BlockRange(sys.N(), w.Rank(), ps)
		local := hot.BlockPartition(sys, w.Rank(), ps)
		if _, err := core.RunSpaceSerialSDC(w, ccfg, local, t0, t1, nsteps, 3, sweeps); err != nil {
			return err
		}
		// Each rank writes its own block range of out.
		copy(out.Particles[lo:hi], local.Particles)
		return nil
	}
	var vt float64
	var err error
	if modeled {
		vt, err = mpi.RunTimed(ps, mpi.BlueGeneP(), runner)
	} else {
		err = mpi.Run(ps, runner)
	}
	if err != nil {
		return nil, 0, err
	}
	return out, vt, nil
}

// TransposeScheme and ClassicalScheme expose the two discretizations
// of the vortex stretching term for ablation studies.
var (
	TransposeScheme = kernel.Transpose
	ClassicalScheme = kernel.Classical
)
