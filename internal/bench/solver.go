package bench

import (
	"fmt"

	nbody "repro"
	"repro/internal/particle"
)

// tracePairs is the number of untraced/traced solve pairs the traced
// run interleaves to price the telemetry itself.
const tracePairs = 3

// solverEndToEnd is the untraced run of a solver workload: set up
// (generate the input, one cold solve) setupRounds times, repeat the
// timed solve until Options.Seconds have elapsed, then verify.
func (r *run) solverEndToEnd() {
	w := r.w
	var sys *nbody.System
	var setups []float64
	var first uint64
	for k := 0; k < setupRounds; k++ {
		var out solved
		var err error
		setups = append(setups, timeIt(func() {
			sys = w.input(r.o.Seed)
			out, err = w.solve(sys, nil)
		}))
		r.op(err)
		if err != nil {
			return
		}
		first = StateHash(out.sys)
	}

	var times, allocs []float64
	var last *nbody.System
	for spent := 0.0; len(times) < r.o.MinReps || spent < r.o.Seconds; {
		var out solved
		var err error
		sec, bytes := measured(func() { out, err = w.solve(sys, nil) })
		spent += sec
		if err == nil && StateHash(out.sys) != first {
			err = fmt.Errorf("repetition %d: final state differs bitwise from the cold solve", len(times))
		}
		r.op(err)
		if err != nil {
			// A failed solve has no latency; the share of failures is
			// reported instead of stopping the run.
			if r.res.Failed > r.o.MinReps {
				break
			}
			continue
		}
		last = out.sys
		times = append(times, sec)
		allocs = append(allocs, bytes/1e6)
	}
	if len(times) == 0 {
		return
	}

	total := 0.0
	for _, t := range times {
		total += t
	}
	r.quantileRow(KindEndToEnd, "setup_s", setups, 50, 1, "s")
	r.quantileRow(KindEndToEnd, "solve_s", times, 50, 1, "s")
	r.quantileRow(KindEndToEnd, "alloc_mb", allocs, 50, 1, "MB")
	r.jobRows(times, total)
	r.row(KindInfo, "err_vs_ref", r.errVsRef(sys, last), "rel")
}

// errVsRef solves the reference and returns the relative maximum
// position error of final against it, checking the workload's gate.
func (r *run) errVsRef(sys, final *nbody.System) float64 {
	ref, err := r.w.reference(sys)
	if err != nil {
		r.problem("reference solve: %v", err)
		return 0
	}
	e := particle.RelMaxPositionError(final, ref)
	if !(e <= r.w.ErrGate) {
		r.problem("err_vs_ref %.3e exceeds the gate %.3e", e, r.w.ErrGate)
	}
	return e
}

// solverTraced is the traced run of a solver workload: interleaved
// untraced and traced solves (their ratio is the telemetry overhead),
// the layer rows of the last traced solve, one modeled solve, and the
// per-layer probes on this workload's N, θ and PS.
func (r *run) solverTraced(root int) {
	w := r.w
	sys := w.input(r.o.Seed)
	span := r.tr.Begin(root, "core.cold_solve")
	_, err := w.solve(sys, nil)
	r.tr.End(span)
	r.op(err)
	if err != nil {
		return
	}

	var plain, traced []float64
	var last solved
	for k := 0; k < tracePairs; k++ {
		span = r.tr.Begin(root, "core.solve_untraced")
		sec, _ := measured(func() { _, err = w.solve(sys, nil) })
		r.tr.End(span)
		r.op(err)
		plain = append(plain, sec)

		span = r.tr.Begin(root, "core.solve_traced")
		sec, _ = measured(func() {
			last, err = w.solve(sys, func(c *nbody.SpaceTimeConfig) { c.Telemetry = true })
		})
		r.tr.End(span)
		r.op(err)
		traced = append(traced, sec)
	}
	if r.res.Failed > 0 {
		return
	}
	untraced := Median(plain)
	r.layer("telemetry.overhead_frac", Median(traced)/untraced-1, "ratio")
	r.layer("err_vs_ref", r.errVsRef(sys, last.sys), "rel")
	r.runRows(last, w.PT*w.PS)

	modeled := 0.0
	if !w.Serial {
		span = r.tr.Begin(root, "machine.modeled_solve")
		out, err := w.solve(sys, func(c *nbody.SpaceTimeConfig) { c.Modeled = true })
		r.tr.End(span)
		r.op(err)
		modeled = out.stats.ModeledSeconds
	}
	r.layer("machine.modeled_s", modeled, "s")
	r.layer("machine.model_ratio", modeled/untraced, "ratio")

	r.probes(root, sys, w.N, w.PT, w.PS, w.Steps)
	r.fleetOnlyRows(nil)
}

// runRows reports the layer rows read from one traced solve: exact
// counts as they are, timers as mean seconds per rank. The serial
// workload has no telemetry; its evaluator counts fill the core rows
// and every hot, mpi and pfasst row is 0 — those layers do no work
// there, which is the point of the workload.
func (r *run) runRows(s solved, ranks int) {
	var snap nbody.RunStats
	if s.stats.Run != nil {
		snap = *s.stats.Run
	}
	perRank := func(name string) float64 { return snap.Timer(name).Total / float64(ranks) }
	count := func(name string) float64 { return float64(snap.Counter(name)) }

	r.layer("hot.decomp_s", perRank("hot.decomp"), "s")
	r.layer("hot.tree_build_s", perRank("hot.tree_build"), "s")
	r.layer("hot.branch_exchange_s", perRank("hot.branch_exchange"), "s")
	r.layer("hot.traverse_s", perRank("hot.traverse"), "s")
	r.layer("hot.interactions", count("hot.interactions"), "count")
	r.layer("hot.mac_accepts", count("hot.mac_accepts"), "count")
	r.layer("hot.mac_rejects", count("hot.mac_rejects"), "count")
	r.layer("hot.p2p", count("hot.p2p"), "count")
	r.layer("hot.fetches", count("hot.fetches"), "count")
	r.layer("hot.prefetched", count("hot.prefetched"), "count")
	r.layer("hot.work_imbalance", snap.Gauges["hot.work_imbalance"], "ratio")

	r.layer("mpi.sends", count("mpi.sends"), "count")
	r.layer("mpi.send_bytes", count("mpi.send_bytes"), "B")
	r.layer("mpi.bcast_s", perRank("mpi.bcast"), "s")
	r.layer("mpi.allreduce_s", perRank("mpi.allreduce"), "s")
	r.layer("mpi.allgather_s", perRank("mpi.allgather"), "s")
	r.layer("mpi.alltoall_s", perRank("mpi.alltoall"), "s")

	r.layer("pfasst.predictor_s", perRank("pfasst.predictor"), "s")
	r.layer("pfasst.iteration_s", perRank("pfasst.iteration"), "s")
	r.layer("pfasst.fine_sweeps", count("pfasst.fine_sweeps"), "count")
	r.layer("pfasst.coarse_sweeps", count("pfasst.coarse_sweeps"), "count")
	r.layer("pfasst.iterations", count("pfasst.iterations"), "count")
	r.layer("pfasst.blocks", count("pfasst.blocks"), "count")
	r.layer("pfasst.residual", snap.Gauges["pfasst.residual"], "abs")

	if s.stats.Run == nil {
		r.layer("core.evals_fine", float64(s.evals), "count")
		r.layer("core.evals_coarse", 0, "count")
		r.layer("core.interactions_fine", float64(s.interactions), "count")
		r.layer("core.interactions_coarse", 0, "count")
		return
	}
	r.layer("core.evals_fine", count("core.evals.level0"), "count")
	r.layer("core.evals_coarse", count("core.evals.level1"), "count")
	r.layer("core.interactions_fine", count("core.interactions.level0"), "count")
	r.layer("core.interactions_coarse", count("core.interactions.level1"), "count")
}
