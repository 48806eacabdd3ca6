// Package core couples the space-parallel Barnes-Hut tree code
// (package hot, the PEPC analog) with the parallel-in-time integrator
// PFASST — the paper's central contribution.
//
// A space-time run uses PT×PS ranks arranged as in Fig. 2 of the
// paper: the world communicator is split once by time slice (giving PT
// spatial "PEPC" communicators of PS ranks each) and once by
// intra-slice index (giving PS temporal "PFASST" communicators of PT
// ranks each). Every rank is a member of exactly one of each.
//
// Spatial coarsening for the coarse PFASST level is obtained through
// the multipole acceptance criterion: the fine propagator evaluates
// forces with θ_fine (accurate, slow), the coarse propagator with
// θ_coarse > θ_fine (cheap, inexact), exactly as in Section IV-B.
package core

import (
	"context"
	"fmt"

	"repro/internal/field"
	"repro/internal/guard"
	"repro/internal/hot"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/sdc"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/vec"
)

// VortexSystem adapts any field.Evaluator (direct solver or serial
// tree) to the ode.System interface for single-process runs: the flat
// state holds positions and circulation vectors (particle.Pack layout)
// and the right-hand side is (u, dα/dt) from the evaluator.
type VortexSystem struct {
	template *particle.System
	eval     field.Evaluator
	work     *particle.System
	vel, str []vec.Vec3
}

// NewVortexSystem returns the ODE view of a particle system under the
// given evaluator. The template's volumes and σ are reused for every
// evaluation; positions and circulations come from the ODE state.
func NewVortexSystem(template *particle.System, eval field.Evaluator) *VortexSystem {
	return &VortexSystem{
		template: template,
		eval:     eval,
		work:     template.Clone(),
		vel:      make([]vec.Vec3, template.N()),
		str:      make([]vec.Vec3, template.N()),
	}
}

// Dim implements ode.System.
func (v *VortexSystem) Dim() int { return v.template.StateLen() }

// F implements ode.System.
func (v *VortexSystem) F(t float64, u, f []float64) {
	v.work.Unpack(u)
	v.eval.Eval(v.work, v.vel, v.str)
	for i := range v.vel {
		o := 6 * i
		f[o+0], f[o+1], f[o+2] = v.vel[i].X, v.vel[i].Y, v.vel[i].Z
		f[o+3], f[o+4], f[o+5] = v.str[i].X, v.str[i].Y, v.str[i].Z
	}
}

// DistVortexSystem is the distributed counterpart: the state holds the
// rank's local particles and the right-hand side is computed
// collectively by the parallel tree on the rank's spatial communicator.
type DistVortexSystem struct {
	local  *particle.System
	solver *hot.Solver
	// work, vel and str are F's scratch; the levels of one rank's
	// hierarchy share them (levelSolver).
	work     *particle.System
	vel, str []vec.Vec3
	// Evals counts collective force evaluations.
	Evals int64

	// telemetry handles (nil = off), set by Instrument.
	telEvals, telInter *telemetry.Counter
}

// NewDistVortexSystem returns the distributed ODE view for the rank's
// local share of the particles.
func NewDistVortexSystem(local *particle.System, solver *hot.Solver) *DistVortexSystem {
	return &DistVortexSystem{
		local:  local,
		solver: solver,
		work:   local.Clone(),
		vel:    make([]vec.Vec3, local.N()),
		str:    make([]vec.Vec3, local.N()),
	}
}

// Instrument routes the system's evaluation counters to the registry
// under the names "core.evals.levelL" / "core.interactions.levelL",
// separating the fine and coarse force-evaluation work per time slice
// (the hot.* counters aggregate over all levels of the rank).
func (d *DistVortexSystem) Instrument(reg *telemetry.Registry, level int) {
	d.telEvals = reg.Counter(fmt.Sprintf("core.evals.level%d", level))
	d.telInter = reg.Counter(fmt.Sprintf("core.interactions.level%d", level))
}

// Dim implements ode.System.
func (d *DistVortexSystem) Dim() int { return d.local.StateLen() }

// F implements ode.System (collective over the spatial communicator).
func (d *DistVortexSystem) F(t float64, u, f []float64) {
	d.work.Unpack(u)
	d.solver.Eval(d.work, d.vel, d.str)
	d.Evals++
	d.telEvals.Inc()
	d.telInter.Add(d.solver.Last.Interactions)
	for i := range d.vel {
		o := 6 * i
		f[o+0], f[o+1], f[o+2] = d.vel[i].X, d.vel[i].Y, d.vel[i].Z
		f[o+3], f[o+4], f[o+5] = d.str[i].X, d.str[i].Y, d.str[i].Z
	}
}

// Config parameterizes a space-time run.
type Config struct {
	// PT and PS are the temporal and spatial rank counts; the world
	// communicator must have exactly PT·PS ranks.
	PT, PS int
	// Sm and Scheme select the smoothing kernel and stretching form.
	Sm     kernel.Smoothing
	Scheme kernel.Scheme
	// ThetaFine and ThetaCoarse are the MAC parameters of the fine and
	// coarse PFASST levels (paper: 0.3 and 0.6).
	ThetaFine, ThetaCoarse float64
	// NodesFine and NodesCoarse are the collocation node counts
	// (paper: 3 and 2).
	NodesFine, NodesCoarse int
	// Iterations and CoarseSweeps select PFASST(X, Y, ·).
	Iterations, CoarseSweeps int
	// Tol, when positive, lets PFASST stop iterating early once the
	// global slice-end update falls below it.
	Tol float64
	// LeafCap is the tree bucket size.
	LeafCap int
	// Dipole enables cluster dipole corrections.
	Dipole bool
	// Threads selects the per-rank traversal worker count (the
	// Pthreads analog of PEPC; ≤1 = synchronous).
	Threads int
	// Traversal selects the force-evaluation strategy of every level's
	// tree solver: tree.TraversalList (default: the vortex tile walk)
	// or tree.TraversalRecursive.
	Traversal tree.TraversalMode
	// Layout is read by nothing; it goes when internal/bench stops naming it.
	Layout particle.Layout
	// Balance enables cross-rank dynamic load balancing: every force
	// evaluation routes per-particle interaction counts back to the
	// particles' owners, and the next evaluation's sample-sort
	// splitters are placed at equal-work (not equal-count) quantiles —
	// the work-sharing rebalancing of Becciani et al., applied to the
	// Morton-range decomposition between steps. Off by default: the
	// interaction-count history is the only state carried across
	// evaluations, so disabling it keeps redo-after-rollback bitwise
	// reproducible for the guard layer.
	Balance bool
	// Branch selects the allgather of every level's branch exchange:
	// hot.BranchBatched (the zero value: Bruck rounds with the prefetch
	// walks overlapped — DESIGN.md §15) or hot.BranchRing. Results are
	// bitwise identical either way.
	Branch hot.BranchMode
	// Model, when non-nil, drives the virtual clocks.
	Model *machine.CostModel
	// Tel, when non-nil, collects this world rank's telemetry (tree
	// phases, message counts, sweep counts, per-level evaluation
	// counters). Each rank needs its own registry; merge the Snapshots
	// afterwards.
	Tel *telemetry.Registry
	// Resilience parameterizes the grid loop every run goes through
	// (resilient.go, DESIGN.md §11): RecvTimeout > 0 puts the block
	// attempts on the deadline link, CheckpointDir/Resume persist and
	// restore the committed block state, MaxBlockRetries bounds the
	// redos of one block. The zero value runs the plain link without
	// checkpoints; crash recovery works either way — commit/abort is
	// agreed over the full PT×PS world, survivors shrink BOTH
	// communicator families (a time slice that died out is dropped and
	// the run continues PT − 1 wide, a thinned slice narrows the
	// spatial width and the committed state is re-decomposed onto it),
	// and a tail of fewer steps than live slices runs as one block on
	// the first of them.
	Resilience pfasst.Resilience
	// Guard configures the silent-data-corruption detectors and the
	// recovery ladder (package guard). When Enabled, every rank gets a
	// private guard wired into its tree builds (ABFT moment checks)
	// and its PFASST time loop (state checksum, block-end monitors).
	// Works at any PS: with PS > 1 the invariant monitors compare
	// global sums (DESIGN.md §15). Corruption verdicts and crash
	// verdicts fold into the same per-block world agreement, so a
	// bit-flip redo and a concurrent rank crash interleave safely
	// (DESIGN.md §12); a rejected block is redone up to
	// Resilience.MaxBlockRetries times.
	Guard guard.Policy
	// Ctx enables cooperative cancellation: the grid loop polls it at
	// every block boundary (never mid-block) and the run returns an
	// error wrapping pfasst.ErrCanceled, identically on every rank. The
	// decision is collective — the ranks' observations of the Context
	// fold into one world agreement (blockBoundary) — so no rank ever
	// aborts asymmetrically out of a deadline-less collective. Nil
	// changes nothing.
	Ctx context.Context
	// OnBlock, when non-nil, is invoked with the index of the block
	// about to run, from exactly one world rank (the lowest live one),
	// before the Context is polled: a hook that cancels the Context
	// stops the run at that block boundary deterministically (the
	// server's chaos plan and progress telemetry hang off this). The
	// grid loop passes a boundary once per attempt, so a retried block
	// reports again.
	OnBlock func(block int)
}

// Default returns the paper's configuration PFASST(2,2,·) with
// θ = 0.3/0.6 on 3/2 Lobatto nodes.
func Default(pt, ps int) Config {
	return Config{
		PT: pt, PS: ps,
		Sm:        kernel.Algebraic6(),
		Scheme:    kernel.Transpose,
		ThetaFine: 0.3, ThetaCoarse: 0.6,
		NodesFine: 3, NodesCoarse: 2,
		Iterations: 2, CoarseSweeps: 2,
		LeafCap: 8,
		Dipole:  true,
	}
}

// Result is one world rank's view of a space-time run.
type Result struct {
	// Local holds the rank's local particles advanced to the final
	// time (every time slice ends with the same copy).
	Local *particle.System
	// SpatialIndex identifies which block of the initial particle
	// ordering Local corresponds to (−1 when the rank retired).
	SpatialIndex int
	// SpatialRanks is the spatial width of the FINAL decomposition:
	// cfg.PS normally, smaller after crash recovery shrank the grid.
	// Reassemble the full state from the ranks with Participated set,
	// slicing by SpatialIndex/SpatialRanks.
	SpatialRanks int
	// Participated reports whether Local holds a share of the final
	// state. False only for ranks the grid loop retired after a shrink
	// or for a tail block on fewer time slices (their Local is nil).
	Participated bool
	// TimeSlice is this rank's slice index.
	TimeSlice int
	// PFASST carries the per-block residual diagnostics.
	PFASST pfasst.Result
	// FineEvals / CoarseEvals count collective force evaluations of
	// the two levels on this rank.
	FineEvals, CoarseEvals int64
}

// RunSpaceTime advances the full particle system from t0 to t1 in
// nsteps steps using PT×PS-way space-time parallelism. Every world
// rank must call it with identical arguments; the world communicator
// must have PT·PS ranks and nsteps must be a multiple of PT. Every run
// goes through the one grid loop (runGrid in resilient.go).
func RunSpaceTime(world *mpi.Comm, cfg Config, full *particle.System, t0, t1 float64, nsteps int) (Result, error) {
	if world.Size() != cfg.PT*cfg.PS {
		return Result{}, fmt.Errorf("core: world has %d ranks, config wants PT×PS = %d×%d",
			world.Size(), cfg.PT, cfg.PS)
	}
	return runGrid(world, cfg, full, t0, t1, nsteps)
}

// levelSystem builds the distributed vortex system of one hierarchy
// level: a parallel tree solver with MAC parameter theta on the spatial
// communicator, evaluating the rank's local particles. The guard, when
// non-nil, hooks the solver's tree builds (ABFT moment checks).
func levelSystem(space *mpi.Comm, cfg Config, local *particle.System, theta float64, level int, grd *guard.Guard) *DistVortexSystem {
	hcfg := hot.Config{
		Sm: cfg.Sm, Scheme: cfg.Scheme, Theta: theta,
		LeafCap: cfg.LeafCap, Dipole: cfg.Dipole, Model: cfg.Model, Threads: cfg.Threads,
		Traversal:       cfg.Traversal,
		WeightedBalance: cfg.Balance,
		Branch:          cfg.Branch,
		Tel:             cfg.Tel,
	}
	if grd != nil {
		hcfg.Hook = grd
	}
	sys := NewDistVortexSystem(local, hot.New(space, hcfg))
	sys.Instrument(cfg.Tel, level)
	return sys
}

// levelSolver builds the two systems of the space-time hierarchy —
// θ_fine on NodesFine nodes, θ_coarse on NodesCoarse — and the PFASST
// configuration over them; it also returns both systems, whose
// evaluation counts the Result reports. The coarse system is the fine
// one with θ_coarse (hot.Solver.WithTheta): one evaluation arena and
// one scratch per rank. The levels take turns — pfasst, sdc and core
// start no goroutine — and F leaves nothing in the scratch that
// outlives the call.
func levelSolver(space *mpi.Comm, cfg Config, local *particle.System, grd *guard.Guard) (pcfg pfasst.Config, fine, coarse *DistVortexSystem) {
	fine = levelSystem(space, cfg, local, cfg.ThetaFine, 0, grd)
	coarse = &DistVortexSystem{
		local:  local,
		solver: fine.solver.WithTheta(cfg.ThetaCoarse),
		work:   fine.work,
		vel:    fine.vel,
		str:    fine.str,
	}
	coarse.Instrument(cfg.Tel, 1)
	return pfasst.Config{
		Levels: []pfasst.LevelSpec{
			{Sys: fine, NNodes: cfg.NodesFine},
			{Sys: coarse, NNodes: cfg.NodesCoarse},
		},
		Iterations:   cfg.Iterations,
		CoarseSweeps: cfg.CoarseSweeps,
		Tol:          cfg.Tol,
		Tel:          cfg.Tel,
		Resilience:   cfg.Resilience,
		Guard:        grd,
	}, fine, coarse
}

// buildLevels is how the grid loop builds a rank's hierarchy, on every
// (re)partition: levelSolver, which white-box tests wrap to inspect the
// levels each rebuild makes.
var buildLevels = levelSolver

// blockBoundary returns the collective block-boundary callback the
// grid loop calls at the top of every block attempt (nil when there is
// neither a Context nor a hook, so such runs pay nothing). The lowest
// live world rank invokes the OnBlock hook; then every live rank polls
// the Context and the verdicts fold into a world agreement, so every
// rank — of every spatial column, active or retired — takes the
// identical abort-or-continue decision (an asymmetric local return
// would strand peers in deadline-less spatial collectives). The
// agreement completes despite dead ranks.
func blockBoundary(world *mpi.Comm, ctx context.Context, onBlock func(int)) func(int) error {
	if ctx == nil && onBlock == nil {
		return nil
	}
	return func(block int) error {
		// Shrink is communication-free; rank 0 of the survivor list is
		// the lowest world rank this rank sees alive.
		if onBlock != nil && world.Shrink().Rank() == 0 {
			onBlock(block)
		}
		cerr := pfasst.CancelErr(ctx, block)
		ok := int64(1)
		if cerr != nil {
			ok = 0
		}
		if world.Agree(ok) == 1 {
			return nil
		}
		if cerr == nil {
			// A peer saw the cancellation first; it is visible here by
			// now unless the peer then died.
			cerr = pfasst.CancelErr(ctx, block)
		}
		if cerr == nil {
			cerr = fmt.Errorf("core: block %d: %w: canceled on a peer", block, pfasst.ErrCanceled)
		}
		return cerr
	}
}

// RunSpaceSerialSDC is the purely space-parallel baseline: time-serial
// SDC(sweeps) on the spatial communicator, using the parallel tree
// with θ_fine for every force evaluation. It advances the rank's local
// particles in place and returns the per-step collocation residuals.
func RunSpaceSerialSDC(spaceComm *mpi.Comm, cfg Config, local *particle.System,
	t0, t1 float64, nsteps, nnodes, sweeps int) ([]float64, error) {
	if nsteps < 1 {
		return nil, fmt.Errorf("core: nsteps %d < 1", nsteps)
	}
	sys := levelSystem(spaceComm, cfg, local, cfg.ThetaFine, 0, nil)
	in := sdc.NewIntegrator(sys, nnodes, sweeps)
	u := local.PackNew()
	residuals := make([]float64, 0, nsteps)
	dt := (t1 - t0) / float64(nsteps)
	for n := 0; n < nsteps; n++ {
		residuals = append(residuals, in.StepResidual(t0+float64(n)*dt, dt, u))
	}
	local.Unpack(u)
	return residuals, nil
}
