// Package pfasst implements the Parallel Full Approximation Scheme in
// Space and Time (Emmett & Minion) as described in Section III-B of
// the paper: parareal-style time decomposition whose propagators are
// SDC sweeps on two collocation levels, coupled by FAS corrections,
// with pipelined communication along the time ranks (Algorithm 1 /
// Fig. 6). This is the paper's PFASST(X, Y, PT): 3 fine and 2 coarse
// Lobatto nodes.
//
// Spatial coarsening is expressed through the level systems alone: both
// levels share the state layout, so the space transfer is the identity,
// and they differ in the accuracy of the right-hand-side evaluation —
// the fine level uses a small MAC parameter θ, the coarse level a large
// one (Section IV-B).
package pfasst

import (
	"fmt"
	"math"

	"repro/internal/guard"
	"repro/internal/mpi"
	"repro/internal/ode"
	"repro/internal/quadrature"
	"repro/internal/sdc"
	"repro/internal/telemetry"
)

// LevelSpec describes one of the two levels.
type LevelSpec struct {
	// Sys evaluates the right-hand side at this level's spatial
	// accuracy. Both levels' systems have the same Dim.
	Sys ode.System
	// NNodes is the number of Gauss–Lobatto collocation nodes; the
	// coarse level's nodes must be a subset of the fine level's (e.g. 3
	// and 2).
	NNodes int
}

// Config parameterizes a PFASST run. The paper's PFASST(X, Y, PT) is
// Config{Iterations: X, CoarseSweeps: Y} on PT time ranks; every
// iteration runs one fine sweep (more only on the guard's extra-sweeps
// rung).
type Config struct {
	// Levels holds exactly two levels, the fine one first.
	Levels []LevelSpec
	// Iterations is the number of PFASST iterations per block.
	Iterations int
	// CoarseSweeps is the number of SDC sweeps per iteration on the
	// coarse level (paper: 2).
	CoarseSweeps int
	// Tol, when positive, stops iterating early once the maximum
	// slice-end update over all time ranks falls below it. Checking the
	// criterion requires an allreduce per iteration, which serializes
	// the otherwise pipelined schedule — adaptivity trades away some
	// overlap, exactly as in production PFASST controllers.
	Tol float64
	// Tel, when non-nil, receives this time rank's sweep counts,
	// convergence gauges, and predictor/iteration timings (see
	// probe.go). Must be private to the rank.
	Tel *telemetry.Registry
	// Resilience carries the fault-tolerance parameters (see
	// resilient.go). BlockAttempt reads its receive deadline; Run has no
	// recovery and rejects a non-zero Resilience — resilient runs go
	// through core.RunSpaceTime, whose grid loop drives BlockAttempt.
	Resilience Resilience
	// Guard, when non-nil, runs the guard's block-end detectors and
	// ladder rungs inside every block attempt (the commit, scrub and
	// retry decisions around it belong to core's grid loop). Nil runs
	// the same attempt with every detector a no-op: same messages, same
	// arithmetic. Run rejects a non-nil Guard.
	Guard *guard.Guard
}

// Result reports one rank's view of a PFASST solve.
type Result struct {
	// U is the solution at the end of the full time interval
	// (identical on every rank).
	U []float64
	// Residuals holds, per block, the fine-level collocation
	// residual of this rank's slice after the final iteration.
	Residuals []float64
	// IterDiffs holds, per block, the max-norm difference of this
	// rank's slice-end value between the last two iterations — the
	// paper's residual measure in Section IV-B.
	IterDiffs []float64
	// SweepsFine / SweepsCoarse count SDC sweeps executed by this rank.
	SweepsFine, SweepsCoarse int
	// IterationsRun holds the number of PFASST iterations actually
	// performed per block (smaller than Config.Iterations only when
	// Tol triggered early termination).
	IterationsRun []int
	// BlockRestarts counts block attempts aborted and redone by core's
	// grid loop (crashes, transport losses, guard rejections);
	// DegradedBlocks counts blocks executed at reduced parallelism
	// (shrunken grid or a tail on fewer time slices). Both stay zero in
	// Run and in a run without faults.
	BlockRestarts  int
	DegradedBlocks int
	// FinalRanks is the live time width at the end of the run: the
	// number of time slices that still have a rank (equal to the
	// starting PT when no slice died out).
	FinalRanks int
}

// level is one of the two levels. The fine level also holds the
// transfer data to the coarse one, allocated once in buildLevels.
type level struct {
	sw     *sdc.Sweeper
	nnodes int

	// fine level only: transfer to the coarse level
	subset    []int       // coarse node index -> fine node index
	interpT   [][]float64 // time interpolation matrix (fine rows × coarse cols)
	uR        [][]float64 // stored restriction of this level's U at coarse nodes
	sfFine    [][]float64 // scratch: this level's node-to-node integrals
	sfC       [][]float64 // scratch: coarse level's integrals
	contrib   []float64   // scratch: one fine interval's Δt (S F) + τ
	deltaC    [][]float64 // scratch: U_c − uR at the coarse nodes
	coarseMix []float64   // scratch: the interpolated correction at one fine node
}

// Run solves u' = f(t,u) from t0 to t1 in nsteps uniform steps,
// distributing blocks of comm.Size() consecutive steps over the time
// ranks. nsteps must be a multiple of comm.Size(). All ranks must pass
// identical arguments; the returned Result.U is the same on every rank.
//
// Run is the plain block loop for generic ode.System callers: one
// attempt per block on the blocking transport, with no agreement, no
// retry and no guard. A space-time run of the particle method goes
// through core.RunSpaceTime, whose grid loop drives the same attempt
// through BlockAttempt.
func Run(comm *mpi.Comm, cfg Config, t0, t1 float64, nsteps int, u0 []float64) (Result, error) {
	res := Result{FinalRanks: comm.Size()}
	s, err := NewGridSolver(cfg, &res)
	if err != nil {
		return Result{}, err
	}
	p := comm.Size()
	if nsteps%p != 0 {
		return Result{}, fmt.Errorf("pfasst: nsteps %d not a multiple of ranks %d", nsteps, p)
	}
	if cfg.Guard != nil || cfg.Resilience != (Resilience{}) {
		return Result{}, fmt.Errorf("pfasst: Run has no recovery; a guarded or resilient run needs core.RunSpaceTime")
	}
	if d := cfg.Levels[0].Sys.Dim(); len(u0) != d {
		return Result{}, fmt.Errorf("pfasst: initial value has length %d, levels have dimension %d", len(u0), d)
	}
	if cfg.Tel != nil {
		comm.AttachTelemetry(cfg.Tel)
	}
	dt := (t1 - t0) / float64(nsteps)
	u := append([]float64(nil), u0...)
	for b := 0; b < nsteps/p; b++ {
		tn := t0 + (float64(b*p)+float64(comm.Rank()))*dt
		if u, err = s.attempt(comm, link{}, tn, dt, u, b, 0); err != nil {
			return Result{}, err
		}
	}
	res.U = u
	return res, nil
}

// buildLevels builds the two levels of a validated cfg.
func buildLevels(cfg Config) (fine, coarse *level, err error) {
	for i, spec := range cfg.Levels {
		if spec.NNodes < 2 {
			return nil, nil, fmt.Errorf("pfasst: level %d has %d nodes", i, spec.NNodes)
		}
	}
	fs, cs := cfg.Levels[0], cfg.Levels[1]
	fine = &level{sw: sdc.NewSweeper(fs.Sys, fs.NNodes), nnodes: fs.NNodes}
	coarse = &level{sw: sdc.NewSweeper(cs.Sys, cs.NNodes), nnodes: cs.NNodes}
	subset, err := quadrature.SubsetIndices(fine.sw.Nodes(), coarse.sw.Nodes())
	if err != nil {
		return nil, nil, fmt.Errorf("pfasst: levels 0/1: %w", err)
	}
	dim := fs.Sys.Dim()
	fine.subset = subset
	fine.interpT = quadrature.InterpMatrix(coarse.sw.Nodes(), fine.sw.Nodes())
	fine.uR = alloc(coarse.nnodes, dim)
	fine.sfFine = alloc(fine.nnodes-1, dim)
	fine.sfC = alloc(coarse.nnodes-1, dim)
	fine.contrib = make([]float64, dim)
	fine.deltaC = alloc(coarse.nnodes, dim)
	fine.coarseMix = make([]float64, dim)
	return fine, coarse, nil
}

func alloc(rows, dim int) [][]float64 {
	a := make([][]float64, rows)
	for i := range a {
		a[i] = make([]float64, dim)
	}
	return a
}

// restrictAndFAS restricts the fine level's node values to the coarse
// level c, re-evaluates the coarse right-hand sides, and computes the
// coarse FAS corrections (Eq. 16/17): for every coarse interval m,
//
//	τ_c[m] = Σ_{fine intervals in m} (Δt (S F)_f + τ_f)  −  Δt (S F)_c.
func (l *level) restrictAndFAS(c *level) {
	// Pointwise restriction at the shared nodes.
	for mc, mf := range l.subset {
		ode.Copy(l.uR[mc], l.sw.U[mf])
		ode.Copy(c.sw.U[mc], l.uR[mc])
	}
	c.sw.EvalAll()
	// Integral terms.
	l.sw.IntegrateSF(l.sfFine)
	c.sw.IntegrateSF(l.sfC)
	for mc := 0; mc < c.nnodes-1; mc++ {
		tau := c.sw.Tau[mc]
		ode.Zero(tau)
		for mf := l.subset[mc]; mf < l.subset[mc+1]; mf++ {
			ode.Copy(l.contrib, l.sfFine[mf])
			ode.AXPY(1, l.sw.Tau[mf], l.contrib)
			ode.AXPY(1, l.contrib, tau)
		}
		ode.AXPY(-1, l.sfC[mc], tau)
	}
}

// interpolateCorrection adds the coarse-grid correction to the fine
// level's node values: U_f[mf] += Σ_mc interpT[mf][mc] · (U_c[mc] − uR[mc]).
func (l *level) interpolateCorrection(c *level) {
	for mc := 0; mc < c.nnodes; mc++ {
		ode.Copy(l.deltaC[mc], c.sw.U[mc])
		ode.AXPY(-1, l.uR[mc], l.deltaC[mc])
	}
	for mf := 0; mf < l.nnodes; mf++ {
		ode.Zero(l.coarseMix)
		for mc := 0; mc < c.nnodes; mc++ {
			ode.AXPY(l.interpT[mf][mc], l.deltaC[mc], l.coarseMix)
		}
		ode.AXPY(1, l.coarseMix, l.sw.U[mf])
	}
	l.sw.EvalAll()
}

// blockRecord is the per-block diagnostics of one attempt: the fine
// collocation residual of this rank's slice, the slice-end update of
// the last iteration and the iterations performed.
type blockRecord struct {
	residual, iterDiff float64
	iters              int
}

// attempt is the one block attempt both time loops run: the block
// body, the distribution of the last rank's end value (which starts
// the next block), the guard's block-end detectors, and — only when
// this rank's verdict is clean — the commit of the per-block record.
// redo is the count of consecutive rejected attempts at this block; it
// selects the attempt's fault-plan flips and climbs the guard ladder
// (one guard.redo per redone attempt and, from the second redo on,
// ExtraSweeps fine sweeps per iteration on top of the one). The error
// wraps errBlockAbort for a transport failure and is a
// *guard.Violation for corruption. The caller folds the verdict into
// its agreement and calls dropRecord (RecordRestart) when the agreed
// verdict rejects the attempt; nothing else is committed here. The
// returned end value is a fresh slice.
func (s *GridSolver) attempt(comm *mpi.Comm, lk link, tn, dt float64, u0 []float64, block, redo int) ([]float64, error) {
	g := s.cfg.Guard
	s.open = false
	fineSweeps := 1
	if g != nil && redo > 0 {
		g.RecordRedo()
		if redo >= 2 {
			fineSweeps += g.Policy().ExtraSweepsN()
		}
	}
	rec, err := s.runBlock(comm, lk, tn, dt, u0, block, fineSweeps)
	if err != nil {
		return nil, err
	}
	end, err := lk.bcastEnd(comm, s.fine.sw.UEnd())
	if err != nil {
		return nil, err
	}
	g.CheckResidual(block, rec.residual) // advisory, rank-local
	// The end value and the injected flips are rank-independent along
	// the time communicator, so every time rank reaches the same
	// block-end verdict.
	if v := g.CheckBlockEnd(end, block, g.InjectBlockEnd(end, block, redo)); v != nil {
		return nil, v
	}
	res := s.res
	res.Residuals = append(res.Residuals, rec.residual)
	res.IterDiffs = append(res.IterDiffs, rec.iterDiff)
	res.IterationsRun = append(res.IterationsRun, rec.iters)
	s.pb.blocks.Inc()
	s.pb.residual.Set(rec.residual)
	s.open = true
	return end, nil
}

// dropRecord removes the per-block record of the last attempt when the
// agreed verdict rejected it although this rank's own was clean (a
// peer's detector fired, or a peer timed out after this rank was
// done), so Result's per-block slices and pfasst.blocks count committed
// blocks. Sweep counters keep the redone work, which really ran.
func (s *GridSolver) dropRecord() {
	if !s.open {
		return
	}
	s.open = false
	res := s.res
	n := len(res.Residuals) - 1
	res.Residuals = res.Residuals[:n]
	res.IterDiffs = res.IterDiffs[:n]
	res.IterationsRun = res.IterationsRun[:n]
	s.pb.blocks.Add(-1)
}

// runBlock is the block body: the predictor, up to cfg.Iterations
// PFASST V-cycles and the trailing sweep for one block of p
// consecutive time steps (Algorithm 1 / Fig. 6). It leaves this rank's
// slice-end value in the fine sweeper. Every exchange goes through lk,
// so the same body serves blocking and deadline transports.
//
//lint:hotpath the PFASST block body: runs once per block on every time rank, 0 allocs per block (TestRunBlockAllocatesNothing)
func (s *GridSolver) runBlock(comm *mpi.Comm, lk link, tn, dt float64, u0 []float64, block, fineSweeps int) (blockRecord, error) {
	cfg, fine, coarse, res, pb := &s.cfg, s.fine, s.coarse, s.res, &s.pb
	p := comm.Size()
	rank := comm.Rank()

	fine.sw.Setup(tn, dt)
	coarse.sw.Setup(tn, dt)
	predSpan := pb.predictor.Start()
	comm.FaultPoint("predictor", block)

	// --- Predictor (Fig. 6 initialization): start the coarse level
	// from u0, spread, then rank n performs n+1 pipelined coarse
	// sweeps, passing slice-end values to the right.
	coarse.sw.SetU0(u0)
	coarse.sw.Spread()
	for j := 0; j <= rank; j++ {
		if j > 0 {
			if err := lk.recv(comm, s.in, rank-1, lk.tag(1, j, true)); err != nil {
				predSpan.Stop()
				return blockRecord{}, fmt.Errorf("%w: predictor: %w", errBlockAbort, err)
			}
			coarse.sw.SetU0(s.in)
		}
		coarse.sw.Sweep()
		res.SweepsCoarse++
		pb.coarseSweeps.Inc()
		if rank < p-1 {
			comm.SendFloat64s(rank+1, lk.tag(1, j+1, true), coarse.sw.UEnd())
		}
	}
	// Interpolate the coarse prediction to the fine level: the full
	// state is a correction against a zero restriction.
	for mc := range fine.uR {
		ode.Zero(fine.uR[mc])
	}
	for mf := range fine.sw.U {
		ode.Zero(fine.sw.U[mf])
	}
	// The interpolation leaves the fine U_0 equal to the coarse one
	// (up to the sign of a zero): interpT's row at the shared node 0 is
	// exactly (1, 0), so rank 0 starts from u0 and its F_0 is already
	// f(u0).
	fine.interpolateCorrection(coarse)
	predSpan.Stop()

	ode.Copy(s.prevEnd, fine.sw.UEnd())
	var rec blockRecord

	// --- PFASST iterations (Algorithm 1).
	for k := 0; k < cfg.Iterations; k++ {
		comm.FaultPoint("iter", k)
		iterSpan := pb.iteration.Start()
		// Down: sweep the fine level, forward its slice end, restrict.
		for n := 0; n < fineSweeps; n++ {
			fine.sw.Sweep()
		}
		res.SweepsFine += fineSweeps
		pb.fineSweeps.Add(int64(fineSweeps))
		if rank < p-1 {
			comm.SendFloat64s(rank+1, lk.tag(0, k, false), fine.sw.UEnd())
		}
		fine.restrictAndFAS(coarse)
		// Coarse level: each sweep receives a fresh initial value from
		// the left and forwards its slice-end value, so coarse
		// information travels one slice per sweep (Fig. 6 shows one
		// receive/send pair per coarse sweep block).
		for n := 0; n < cfg.CoarseSweeps; n++ {
			if rank > 0 {
				if err := lk.recv(comm, s.in, rank-1, lk.tag(1, k*8+n, false)); err != nil {
					iterSpan.Stop()
					return blockRecord{}, fmt.Errorf("%w: iteration %d coarse: %w", errBlockAbort, k, err)
				}
				coarse.sw.SetU0(s.in)
			}
			coarse.sw.Sweep()
			res.SweepsCoarse++
			pb.coarseSweeps.Inc()
			if rank < p-1 {
				comm.SendFloat64s(rank+1, lk.tag(1, k*8+n, false), coarse.sw.UEnd())
			}
		}
		// Up: per Algorithm 1, the fine level first receives its new
		// initial value from the left and then applies the interpolated
		// coarse correction — including at node 0, where the correction
		// is taken relative to the freshly received value, so the faster
		// coarse information channel improves the fine initial
		// condition. SetU0 evaluates nothing: the interpolation's
		// EvalAll evaluates F_0 with the other nodes. The fine level
		// sweeps at the start of the next iteration.
		if rank > 0 {
			if err := lk.recv(comm, s.in, rank-1, lk.tag(0, k, false)); err != nil {
				iterSpan.Stop()
				return blockRecord{}, fmt.Errorf("%w: iteration %d fine: %w", errBlockAbort, k, err)
			}
			fine.sw.SetU0(s.in)
			ode.Copy(fine.uR[0], fine.sw.U[0])
		}
		fine.interpolateCorrection(coarse)
		rec.iterDiff = ode.MaxDiff(fine.sw.UEnd(), s.prevEnd)
		ode.Copy(s.prevEnd, fine.sw.UEnd())
		rec.iters = k + 1
		iterSpan.Stop()
		pb.iterDiff.Set(rec.iterDiff)
		if cfg.Tol > 0 {
			global, err := lk.allreduceMax(comm, rec.iterDiff, k)
			if err != nil {
				return blockRecord{}, err
			}
			if global < cfg.Tol {
				break
			}
		}
	}

	// The trailing sweep: one more fine sweep so the reported solution
	// incorporates the last coarse correction (the "finalize" stage of
	// standard PFASST controllers).
	fine.sw.Sweep()
	res.SweepsFine++
	pb.fineSweeps.Inc()
	pb.iters.Add(int64(rec.iters))
	rec.residual = fine.sw.Residual()
	return rec, nil
}

// TheorySpeedup evaluates Eq. (23) of the paper: the speedup of PFASST
// with PT time ranks against serial SDC with Ks sweeps per step, given
// Kp PFASST iterations, per-level sweep counts n[l], per-level sweep
// costs upsilon[l] and FAS overheads gamma[l], both normalized by the
// finest sweep cost (upsilon[0] = 1).
func TheorySpeedup(pt int, ks, kp int, n, upsilon, gamma []float64) float64 {
	L := len(n) - 1
	denom := float64(pt) * n[L] * upsilon[L]
	for l := 0; l <= L; l++ {
		denom += float64(kp) * (n[l]*upsilon[l] + n[l]*gamma[l])
	}
	return float64(pt) * float64(ks) / denom
}

// Beta is the per-iteration overhead β of Eq. (24) for the paper's 3
// fine Lobatto nodes, in units of one fine sweep Υ₀. A slice makes
// N_f + K·(M_f + N_f) + M_f fine evaluations per block
// (TestEvaluationSchedule): besides its sweep's M_f = 2, an iteration
// re-evaluates the N_f = 3 fine nodes after the interpolation, so
// β = N_f / M_f = 1.5. The restriction's coarse re-evaluation is not
// priced here.
const Beta = 1.5

// TwoLevelSpeedup evaluates Eq. (24): S(PT; α) for a two-level run
// with coarse/fine cost ratio α, nL coarse sweeps per iteration and
// relative per-iteration overhead β.
func TwoLevelSpeedup(pt int, ks, kp int, nL, alpha, beta float64) float64 {
	return float64(pt) * float64(ks) /
		(float64(pt)*nL*alpha + float64(kp)*(1+nL*alpha+beta))
}

// MaxSpeedup is the bound of Eq. (25): S ≤ (Ks/Kp)·PT, independent of
// α; the corresponding maximum parallel efficiency is Ks/Kp (compare
// parareal's 1/K).
func MaxSpeedup(pt int, ks, kp int) float64 {
	return float64(ks) / float64(kp) * float64(pt)
}

// EfficiencyBound returns Ks/Kp, PFASST's parallel-efficiency bound.
func EfficiencyBound(ks, kp int) float64 {
	return math.Min(1, float64(ks)/float64(kp))
}
