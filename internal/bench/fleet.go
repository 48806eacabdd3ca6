package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	nbody "repro"
	"repro/internal/particle"
	"repro/internal/server"
)

// The daemon under test: two workers behind a queue of sixteen. A
// closed loop of two clients can never fill it, so a single rejection
// is a failure.
const (
	fleetWorkers    = 2
	fleetQueueDepth = 16
	// jobTimeout bounds one WaitJob; a job that overruns it counts as
	// failed instead of hanging the benchmark.
	jobTimeout = 60 * time.Second
	// directRounds is how many times each of the four specs is solved
	// directly through the façade (solve_s on this workload).
	directRounds = 5
	// tracedFleetJobs is the size of the short fleet of the traced run
	// (Options.MinJobs when that is smaller).
	tracedFleetJobs = 16
)

// jobRecord is one job of the fleet as its client saw it.
type jobRecord struct {
	spec    int
	id      uint64
	hash    string
	latency float64 // seconds, from just before Submit to completion
	err     error
}

// startDaemon opens an in-process nbodyd on a fresh state directory.
func (r *run) startDaemon() (*server.Daemon, error) {
	return server.New(server.Config{Dir: r.subdir("nbodyd"), Workers: fleetWorkers, QueueDepth: fleetQueueDepth})
}

// runJob submits one spec and waits for it; any outcome other than
// "done" is an error.
func runJob(d *server.Daemon, spec *server.JobSpec) (server.JobStatus, error) {
	id, err := d.Submit(spec)
	if err != nil {
		return server.JobStatus{}, err
	}
	st, err := d.WaitJob(id, jobTimeout)
	if err != nil {
		return st, err
	}
	if st.State != server.StateDone {
		return st, fmt.Errorf("job %d ended %s: %s", id, st.State, st.Error)
	}
	return st, nil
}

// fleet drives the closed loop: Clients goroutines each submit a job,
// wait for it, and take the next from a shared counter (so the four
// specs stay evenly mixed whatever the timing) until seconds have
// elapsed, at least minJobs were started and the cycle of specs is
// complete. It returns the jobs, the fleet's wall-clock and the bytes
// allocated while it ran.
func (r *run) fleet(d *server.Daemon, specs []*server.JobSpec, seconds float64, minJobs int) (jobs []jobRecord, wall, allocBytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	next, stopped := 0, false
	// claim hands out the next job index, or stops the fleet: only at a
	// whole cycle of the specs, so every run measures the same mix.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next%len(specs) == 0 && next >= minJobs && time.Since(start).Seconds() >= seconds {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < r.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := claim()
				if !ok {
					return
				}
				rec := jobRecord{spec: k % len(specs)}
				t0 := time.Now()
				st, err := runJob(d, specs[rec.spec])
				rec.latency = time.Since(t0).Seconds()
				rec.id, rec.hash, rec.err = st.ID, st.Hash, err
				mu.Lock()
				jobs = append(jobs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	for _, j := range jobs {
		r.op(j.err)
	}
	return jobs, wall, float64(after.TotalAlloc - before.TotalAlloc)
}

// rejected sums the daemon's rejection counters.
func rejected(d *server.Daemon) int64 {
	var n int64
	for name, v := range d.Metrics().Counters {
		if strings.HasPrefix(name, "server.rejected.") {
			n += v
		}
	}
	return n
}

// verifyFleet checks the fleet's outputs: no rejection, one hash per
// spec, and for each spec one job's stored result bitwise equal to
// direct[i], a direct façade solve of the same spec.
func (r *run) verifyFleet(d *server.Daemon, jobs []jobRecord, direct []solved) {
	if n := rejected(d); n != 0 {
		r.problem("%d submissions rejected by a queue a closed loop cannot fill", n)
	}
	firstOf := make([]*jobRecord, len(direct))
	for i := range jobs {
		j := &jobs[i]
		if j.err != nil {
			continue
		}
		if first := firstOf[j.spec]; first == nil {
			firstOf[j.spec] = j
		} else if first.hash != j.hash {
			r.problem("spec %d: job %d hash %s differs from job %d hash %s", j.spec, j.id, j.hash, first.id, first.hash)
		}
	}
	for i, first := range firstOf {
		if first == nil || direct[i].sys == nil {
			continue
		}
		stored, err := nbody.LoadCheckpoint(d.ResultPath(first.id))
		if err != nil {
			r.problem("spec %d: job %d result: %v", i, first.id, err)
		} else if StateHash(stored) != StateHash(direct[i].sys) {
			r.problem("spec %d: job %d result differs bitwise from the direct solve", i, first.id)
		}
	}
}

// directRound solves every spec once, directly through the façade,
// and returns the final states and the mean solve time.
func (r *run) directRound(specs []*server.JobSpec) (outs []solved, mean float64) {
	for _, spec := range specs {
		out, sec, err := r.directSolve(spec, nil)
		r.op(err)
		outs = append(outs, out)
		mean += sec / float64(len(specs))
	}
	return outs, mean
}

// directSolve runs one fleet spec through the façade exactly as the
// daemon configures it — resilience, checkpoints and resume on, so each
// solve gets a fresh checkpoint directory or it would resume the last
// one — and times it. mod, when non-nil, adjusts the configuration.
func (r *run) directSolve(spec *server.JobSpec, mod func(*nbody.SpaceTimeConfig)) (solved, float64, error) {
	sys, err := spec.BuildSystem()
	if err != nil {
		return solved{}, 0, err
	}
	cfg := spec.SolverConfig(r.subdir("ckpt"))
	if mod != nil {
		mod(&cfg)
	}
	var out solved
	sec, _ := measured(func() {
		out.sys, out.stats, err = nbody.RunSpaceTime(cfg, sys, spec.T0, spec.T1, spec.Steps)
	})
	return out, sec, err
}

// fleetEndToEnd is the untraced run of the daemon workload.
func (r *run) fleetEndToEnd() {
	specs := r.w.fleetSpecs(r.o.Seed)
	var d *server.Daemon
	var setups []float64
	for k := 0; k < setupRounds; k++ {
		if d != nil {
			d.Close()
		}
		var err error
		setups = append(setups, timeIt(func() {
			if d, err = r.startDaemon(); err == nil {
				_, err = runJob(d, specs[0])
			}
		}))
		r.op(err)
		if d == nil {
			return
		}
	}
	defer d.Close()

	jobs, wall, allocBytes := r.fleet(d, specs, r.o.Seconds, r.o.MinJobs)
	var lat []float64
	for _, j := range jobs {
		if j.err == nil {
			lat = append(lat, j.latency)
		}
	}
	if len(lat) == 0 {
		return
	}

	// solve_s: the same four specs solved directly, without the daemon;
	// one sample is the mean over the four specs of a round. The last
	// round's final states are the bitwise reference of the stored
	// results.
	rounds := make([]float64, directRounds)
	var direct []solved
	for k := range rounds {
		direct, rounds[k] = r.directRound(specs)
	}
	r.verifyFleet(d, jobs, direct)

	r.quantileRow(KindEndToEnd, "setup_s", setups, 50, 1, "s")
	r.quantileRow(KindEndToEnd, "solve_s", rounds, 50, 1, "s")
	r.row(KindEndToEnd, "alloc_mb", allocBytes/1e6/float64(len(jobs)), "MB")
	r.jobRows(lat, wall)
}

// jobRows reports the three latency rows every workload shares: lat
// holds the latency of each completed job (or solve) and wall the
// wall-clock they took together.
func (r *run) jobRows(lat []float64, wall float64) {
	_, pct := Tail(lat)
	r.quantileRow(KindEndToEnd, "job_p50_ms", lat, 50, 1e3, "ms")
	r.quantileRow(KindEndToEnd, "job_p80_ms", lat, pct, 1e3, "ms")
	r.row(KindEndToEnd, "jobs_per_s", float64(len(lat))/wall, "1/s").Spread = MeanSpread(lat)
	if pct != 80 {
		r.note("job_p80_ms is the median: %d samples leave fewer than %d beyond p80", len(lat), minTailSamples)
	}
}

// fleetLayer holds the layer rows only the daemon workload measures.
type fleetLayer struct {
	resilientPS1, resilientPS2 float64
	overheadMs                 float64
	completed, retried, reject float64
}

// fleetOnlyRows reports the rows of fleetLayer; a nil f (a solver
// workload, whose path crosses neither the daemon nor the resilient
// loops) reports them as 0.
func (r *run) fleetOnlyRows(f *fleetLayer) {
	if f == nil {
		f = &fleetLayer{}
	}
	r.layer("core.resilient_ratio_ps1", f.resilientPS1, "ratio")
	r.layer("core.resilient_ratio_ps2", f.resilientPS2, "ratio")
	r.layer("server.overhead_ms", f.overheadMs, "ms")
	r.layer("server.jobs_completed", f.completed, "count")
	r.layer("server.jobs_retried", f.retried, "count")
	r.layer("server.rejected", f.reject, "count")
}

// fleetTraced is the traced run of the daemon workload: a short fleet
// for the daemon's own counters, direct solves of a PS = 1 and a PS = 2
// spec with and without resilience and telemetry, and the probes on
// the fleet's job shape.
func (r *run) fleetTraced(root int) {
	specs := r.w.fleetSpecs(r.o.Seed)
	ps1, ps2 := specs[0], specs[len(specs)-1]
	span := r.tr.Begin(root, "server.fleet")
	d, err := r.startDaemon()
	if err != nil {
		r.op(err)
		r.tr.End(span)
		return
	}
	jobs, _, _ := r.fleet(d, specs, 0, min(tracedFleetJobs, r.o.MinJobs))
	counters := d.Metrics().Counters
	fl := &fleetLayer{
		completed: float64(counters["server.jobs.completed"]),
		retried:   float64(counters["server.jobs.retried"]),
		reject:    float64(rejected(d)),
	}
	d.Close()
	r.tr.End(span)
	var lat []float64
	for _, j := range jobs {
		if j.err == nil {
			lat = append(lat, j.latency)
		}
	}

	// Interleaved direct solves of one PS = 1 and one PS = 2 spec:
	// as the daemon runs them, with resilience off, and (PS = 2 only)
	// with telemetry on.
	plainCfg := func(c *nbody.SpaceTimeConfig) { c.Resilience = nbody.ResilienceConfig{} }
	var resilient, plain [2][]float64
	var traced []float64
	var last solved
	span = r.tr.Begin(root, "core.direct_solves")
	for k := 0; k < tracePairs; k++ {
		for i, spec := range []*server.JobSpec{ps1, ps2} {
			_, sec, err := r.directSolve(spec, nil)
			r.op(err)
			resilient[i] = append(resilient[i], sec)
			_, sec, err = r.directSolve(spec, plainCfg)
			r.op(err)
			plain[i] = append(plain[i], sec)
		}
		out, sec, err := r.directSolve(ps2, func(c *nbody.SpaceTimeConfig) { c.Telemetry = true })
		r.op(err)
		traced, last = append(traced, sec), out
	}
	r.tr.End(span)
	if r.res.Failed > 0 || len(lat) == 0 {
		return
	}
	fl.resilientPS1 = Median(resilient[0]) / Median(plain[0])
	fl.resilientPS2 = Median(resilient[1]) / Median(plain[1])
	fl.overheadMs = 1e3 * (Median(lat) - Median(resilient[0]))
	untraced := Median(resilient[1])
	r.layer("telemetry.overhead_frac", Median(traced)/untraced-1, "ratio")

	sys, err := ps2.BuildSystem()
	if err != nil {
		r.problem("fleet input: %v", err)
		return
	}
	ref := nbody.NewSimulation(sys.Clone())
	if err := ref.Run(ps2.T0, ps2.T1, ps2.Steps); err != nil {
		r.problem("reference solve: %v", err)
		return
	}
	e := particle.RelMaxPositionError(last.sys, ref.Sys)
	if !(e <= r.w.ErrGate) {
		r.problem("err_vs_ref %.3e exceeds the gate %.3e", e, r.w.ErrGate)
	}
	r.layer("err_vs_ref", e, "rel")
	r.runRows(last, ps2.PT*ps2.PS)

	span = r.tr.Begin(root, "machine.modeled_solve")
	out, _, err := r.directSolve(ps2, func(c *nbody.SpaceTimeConfig) { c.Modeled = true })
	r.tr.End(span)
	r.op(err)
	r.layer("machine.modeled_s", out.stats.ModeledSeconds, "s")
	r.layer("machine.model_ratio", out.stats.ModeledSeconds/untraced, "ratio")

	r.probes(root, sys, r.w.N, ps2.PT, ps2.PS, ps2.Steps)
	r.fleetOnlyRows(fl)
}
