package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	nbody "repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/hot"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/ode"
	"repro/internal/pfasst"
	"repro/internal/sched"
	"repro/internal/sdc"
	"repro/internal/server"
	"repro/internal/tree"
	"repro/internal/vec"
)

// sink keeps probe results alive so the compiler cannot drop the
// measured calls. Only the benchmark's own goroutine writes it.
var sink float64

// minProbeIters is the least number of timed calls behind a probe's
// median, whatever Options.ProbeBudget says.
const minProbeIters = 5

// sample repeats fn — after one warm-up call — until the probe budget
// is spent, and returns the median wall-clock seconds of one call.
func (r *run) sample(fn func()) float64 {
	fn()
	var xs []float64
	for start := time.Now(); len(xs) < minProbeIters || time.Since(start) < r.o.ProbeBudget; {
		xs = append(xs, timeIt(fn))
	}
	return Median(xs)
}

// collectiveReps is the fixed repetition count of the probes that run
// inside mpi.Run: every rank must execute the same number of
// collectives, so these cannot stop on a clock.
const collectiveReps = 7

// probes runs every per-layer probe on inputs of this workload's
// shape — the system sys of n particles, pt time ranks, ps spatial
// ranks, steps time steps — each under its own span.
func (r *run) probes(root int, sys *nbody.System, n, pt, ps, steps int) {
	dc := core.Default(pt, ps)
	probe := func(name string, fn func()) {
		span := r.tr.Begin(root, name)
		fn()
		r.tr.End(span)
	}
	var treeNs float64
	probe("kernel.probes", func() { r.kernelProbes(sys, dc) })
	probe("tree.probes", func() { treeNs = r.treeProbes(sys, dc, r.o.Seed) })
	probe("hot.probe", func() { r.hotProbe(sys, dc, treeNs) })
	probe("mpi.probes", func() { r.mpiProbes(6*n/ps, ps) })
	probe("sdc.probe", func() { r.sdcProbe(6 * n) })
	probe("pfasst.probe", func() { r.pfasstProbe(6*n/ps, dc, steps) })
	probe("checkpoint.probes", func() { r.checkpointProbes(6*n, pt, ps) })
	probe("server.probes", func() { r.serverProbes() })
	probe("sched.probes", func() { r.schedProbes() })
}

// lanes gathers the first m particles of sys into struct-of-arrays
// source lanes.
func lanes(sys *nbody.System, m int) (xs, ys, zs, ax, ay, az []float64) {
	if m > sys.N() {
		m = sys.N()
	}
	for _, p := range sys.Particles[:m] {
		xs, ys, zs = append(xs, p.Pos.X), append(ys, p.Pos.Y), append(zs, p.Pos.Z)
		ax, ay, az = append(ax, p.Alpha.X), append(ay, p.Alpha.Y), append(az, p.Alpha.Z)
	}
	return
}

// kernelProbes times the batched pair kernels: every particle of sys
// as a target against one source range, in nanoseconds per counted
// interaction. Range 64 exercises the 8-wide blocks, range 7 only the
// remainder loop.
func (r *run) kernelProbes(sys *nbody.System, dc core.Config) {
	vb := kernel.NewVortexBatch(kernel.Pairwise{Sm: dc.Sm, Sigma: sys.Sigma})
	perInteraction := func(width int, accum func(acc *kernel.VortexAcc, t vec.Vec3, xs, ys, zs, ax, ay, az []float64)) float64 {
		xs, ys, zs, ax, ay, az := lanes(sys, width)
		var acc kernel.VortexAcc
		sec := r.sample(func() {
			acc = kernel.VortexAcc{}
			for i := range sys.Particles {
				accum(&acc, sys.Particles[i].Pos, xs, ys, zs, ax, ay, az)
			}
		})
		sink += acc.UX
		return 1e9 * sec / float64(acc.N)
	}
	grad := func(acc *kernel.VortexAcc, t vec.Vec3, xs, ys, zs, ax, ay, az []float64) {
		vb.AccumGradRange(acc, t.X, t.Y, t.Z, xs, ys, zs, ax, ay, az, -1)
	}
	r.layer("kernel.grad_ns_per_interaction", perInteraction(64, grad), "ns")
	r.layer("kernel.grad_tail_ns_per_interaction", perInteraction(7, grad), "ns")
	r.layer("kernel.vel_ns_per_interaction", perInteraction(64,
		func(acc *kernel.VortexAcc, t vec.Vec3, xs, ys, zs, ax, ay, az []float64) {
			vb.AccumVelRange(acc, t.X, t.Y, t.Z, xs, ys, zs, ax, ay, az, -1)
		}), "ns")

	xs, ys, zs, qs, _, _ := lanes(sys, 64)
	var acc kernel.CoulombAcc
	sec := r.sample(func() {
		acc = kernel.CoulombAcc{}
		for i := range sys.Particles {
			t := sys.Particles[i].Pos
			kernel.AccumCoulombRange(&acc, t.X, t.Y, t.Z, 0.01, xs, ys, zs, qs, -1)
		}
	})
	sink += acc.Phi
	r.layer("kernel.coulomb_ns_per_interaction", 1e9*sec/float64(acc.N), "ns")
}

// treeProbes times the single-rank tree code at one worker — the
// single-thread baseline — and returns its nanoseconds per interaction
// at the fine θ.
func (r *run) treeProbes(sys *nbody.System, dc core.Config, seed int64) float64 {
	n := sys.N()
	bc := tree.BuildConfig{LeafCap: dc.LeafCap, Discipline: tree.Vortex, Layout: dc.Layout}
	var arena tree.Arena
	var t *tree.Tree
	r.layer("tree.build_us", 1e6*r.sample(func() { t = tree.BuildInto(&arena, sys, bc) }), "us")

	groups := t.Groups(dc.LeafCap)
	list := tree.GetInteractionList()
	r.layer("tree.list_build_ms", 1e3*r.sample(func() {
		for _, g := range groups {
			nd := &t.Nodes[g]
			list.Reset()
			gc, ge := t.GroupBounds(nd.First, nd.Count)
			t.AppendInteractionList(list, tree.MACBarnesHut, dc.ThetaFine, int32(t.Root), gc, ge)
		}
	}), "ms")
	tree.PutInteractionList(list)

	vel, str := make([]vec.Vec3, n), make([]vec.Vec3, n)
	eval := func(theta float64) (sec, interactions, allocs float64) {
		s := tree.NewSolver(dc.Sm, dc.Scheme, theta)
		s.Workers = 1
		sec = r.sample(func() { s.Eval(sys, vel, str) })
		before := s.Stats().Interactions
		allocs = mallocs(func() { s.Eval(sys, vel, str) })
		return sec, float64(s.Stats().Interactions - before), allocs
	}
	fine, fineInter, allocs := eval(dc.ThetaFine)
	coarse, coarseInter, _ := eval(dc.ThetaCoarse)
	r.layer("tree.eval_fine_ms", 1e3*fine, "ms")
	r.layer("tree.eval_coarse_ms", 1e3*coarse, "ms")
	r.layer("tree.interactions_fine", fineInter, "count")
	r.layer("tree.interactions_coarse", coarseInter, "count")
	r.layer("tree.ns_per_interaction", 1e9*fine/fineInter, "ns")
	r.layer("tree.theta_cost_ratio", fine/coarse, "ratio")
	r.layer("tree.eval_allocs", allocs, "count")

	cloud := nbody.CoulombCloud(n, seed)
	cs := tree.NewSolver(dc.Sm, dc.Scheme, dc.ThetaFine)
	cs.Workers = 1
	pot := make([]float64, n)
	r.layer("tree.coulomb_eval_ms", 1e3*r.sample(func() { cs.Coulomb(cloud, 0.01, pot, vel) }), "ms")
	return 1e9 * fine / fineInter
}

// hotProbe times one collective hot.Solver.Eval at the fine θ on
// dc.PS ranks, barrier to barrier. hot.ns_per_interaction charges the
// wall-clock to the cores the ranks can occupy, so its ratio to the
// single-rank tree prices the distributed evaluator's overhead
// (exchange, remote leaves, imbalance) per interaction.
func (r *run) hotProbe(sys *nbody.System, dc core.Config, treeNs float64) {
	ps := dc.PS
	hcfg := hot.Config{
		Sm: dc.Sm, Scheme: dc.Scheme, Theta: dc.ThetaFine,
		LeafCap: dc.LeafCap, Dipole: dc.Dipole, Threads: dc.Threads,
		Traversal: dc.Traversal, Layout: dc.Layout, Branch: dc.Branch,
	}
	var mu sync.Mutex
	var times []float64
	var interactions, allocs float64
	err := mpi.Run(ps, func(c *mpi.Comm) error {
		local := hot.BlockPartition(sys, c.Rank(), ps)
		s := hot.New(c, hcfg)
		vel, str := make([]vec.Vec3, local.N()), make([]vec.Vec3, local.N())
		evalOnce := func() float64 {
			c.Barrier()
			t0 := time.Now()
			s.Eval(local, vel, str)
			c.Barrier()
			return time.Since(t0).Seconds()
		}
		evalOnce()
		for k := 0; k < collectiveReps; k++ {
			if sec := evalOnce(); c.Rank() == 0 {
				times = append(times, sec)
			}
		}
		// One more evaluation counted in heap objects instead of time.
		if c.Rank() == 0 {
			allocs = mallocs(func() { evalOnce() })
		} else {
			evalOnce()
		}
		mu.Lock()
		interactions += float64(s.Last.Interactions)
		mu.Unlock()
		return nil
	})
	if err != nil {
		r.problem("hot probe: %v", err)
	}
	cores := ps
	if p := runtime.GOMAXPROCS(0); p < cores {
		cores = p
	}
	evalSec := Median(times)
	hotNs := 1e9 * evalSec * float64(cores) / interactions
	r.layer("hot.eval_ms", 1e3*evalSec, "ms")
	r.layer("hot.ns_per_interaction", hotNs, "ns")
	r.layer("hot.eval_allocs", allocs, "count")
	r.layer("hot.vs_tree_ns_ratio", hotNs/treeNs, "ratio")
}

// mpiProbes times the in-process transport: a ping-pong of 8 bytes and
// of one rank's state vector (stateLen floats through the float64
// codec) between two ranks, and the two collectives the tree code
// leans on, at 1 KB per rank on ps ranks.
func (r *run) mpiProbes(stateLen, ps int) {
	const tag = 7
	var small, state []float64
	var stateAllocs float64
	const rounds = 200
	pingPong := func(c *mpi.Comm, send func(dst int), recv func(src int)) float64 {
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				send(1)
				recv(1)
			} else {
				recv(0)
				send(0)
			}
		}
		return time.Since(t0).Seconds() / (2 * rounds)
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		word := make([]byte, 8)
		vecs := make([]float64, stateLen)
		sendWord := func(dst int) { c.Send(dst, tag, word) }
		recvWord := func(src int) { c.Recv(src, tag) }
		sendState := func(dst int) { c.SendFloat64s(dst, tag, vecs) }
		recvState := func(src int) { c.RecvFloat64s(src, tag) }
		for k := 0; k < collectiveReps; k++ {
			s := pingPong(c, sendWord, recvWord)
			v := pingPong(c, sendState, recvState)
			if c.Rank() == 0 {
				small, state = append(small, s), append(state, v)
			}
		}
		// One more window counted in heap objects instead of time; both
		// ranks allocate inside the window rank 0 counts.
		if c.Rank() == 0 {
			stateAllocs = mallocs(func() { pingPong(c, sendState, recvState) }) / (2 * rounds)
		} else {
			pingPong(c, sendState, recvState)
		}
		return nil
	})
	if err != nil {
		r.problem("mpi ping-pong probe: %v", err)
	}
	r.layer("mpi.small_msg_us", 1e6*Median(small), "us")
	r.layer("mpi.state_msg_us", 1e6*Median(state), "us")
	r.layer("mpi.state_msg_allocs", stateAllocs, "count")

	var gather, all2all []float64
	err = mpi.Run(ps, func(c *mpi.Comm) error {
		kb := make([]byte, 1024)
		parts := make([][]byte, ps)
		for i := range parts {
			parts[i] = kb
		}
		collective := func(fn func()) float64 {
			const rounds = 50
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				fn()
			}
			return time.Since(t0).Seconds() / rounds
		}
		for k := 0; k < collectiveReps; k++ {
			g := collective(func() { c.Allgather(kb) })
			a := collective(func() { c.Alltoall(parts) })
			if c.Rank() == 0 {
				gather, all2all = append(gather, g), append(all2all, a)
			}
		}
		return nil
	})
	if err != nil {
		r.problem("mpi collective probe: %v", err)
	}
	r.layer("mpi.allgather_us", 1e6*Median(gather), "us")
	r.layer("mpi.alltoall_us", 1e6*Median(all2all), "us")
}

// decay is the trivial right-hand side u' = −u: with it the integrator
// probes time their own arithmetic and messaging, not a force
// evaluation.
func decay(dim int) ode.System {
	return ode.FuncSystem{N: dim, Fn: func(_ float64, u, f []float64) {
		for i := range u {
			f[i] = -u[i]
		}
	}}
}

// sdcProbe times one three-node SDC sweep over the trivial system at
// the full state dimension.
func (r *run) sdcProbe(dim int) {
	sw := sdc.NewSweeper(decay(dim), 3)
	u0 := make([]float64, dim)
	for i := range u0 {
		u0[i] = 1
	}
	sw.Setup(0, 0.1)
	sw.SetU0(u0)
	sw.Spread()
	r.layer("sdc.sweep_us", 1e6*r.sample(sw.Sweep), "us")
	sink += sw.UEnd()[0]
}

// pfasstProbe times pfasst.Run over the trivial system on dc.PT time
// ranks for the workload's step count: the pipeline, transfer and
// messaging cost with the force evaluation removed.
func (r *run) pfasstProbe(dim int, dc core.Config, steps int) {
	sys := decay(dim)
	cfg := pfasst.Config{
		Levels:       []pfasst.LevelSpec{{Sys: sys, NNodes: dc.NodesFine}, {Sys: sys, NNodes: dc.NodesCoarse}},
		Iterations:   dc.Iterations,
		CoarseSweeps: dc.CoarseSweeps,
	}
	u0 := make([]float64, dim)
	for i := range u0 {
		u0[i] = 1
	}
	var times []float64
	err := mpi.Run(dc.PT, func(c *mpi.Comm) error {
		for k := 0; k < collectiveReps; k++ {
			c.Barrier()
			t0 := time.Now()
			if _, err := pfasst.Run(c, cfg, 0, 1, steps, u0); err != nil {
				return err
			}
			c.Barrier()
			if c.Rank() == 0 {
				times = append(times, time.Since(t0).Seconds())
			}
		}
		return nil
	})
	if err != nil {
		r.problem("pfasst probe: %v", err)
	}
	r.layer("pfasst.overhead_ms", 1e3*Median(times), "ms")
}

// checkpointProbes times the block-checkpoint I/O of both resilient
// loops on a state of dim floats: the single NBLV file of PS = 1, and
// the per-column shards plus manifest commit of the grid path. Every
// save ends in an fsync, so the timings belong to this host's disk.
func (r *run) checkpointProbes(dim, pt, ps int) {
	dir := r.subdir("checkpoint")
	state := make([]float64, dim)
	for i := range state {
		state[i] = float64(i)
	}
	st := &checkpoint.LevelState{Block: 1, StepsDone: pt, TimeRanks: pt, T: 0.5, U: [][]float64{state}}
	path := filepath.Join(dir, "block.nblv")
	var err error
	r.layer("checkpoint.save_levels_ms", 1e3*r.sample(func() {
		if e := checkpoint.SaveLevels(path, st); e != nil {
			err = e
		}
	}), "ms")
	r.layer("checkpoint.load_levels_ms", 1e3*r.sample(func() {
		if _, e := checkpoint.LoadLevels(path); e != nil {
			err = e
		}
	}), "ms")
	size := 0.0
	if fi, e := os.Stat(path); e == nil {
		size = float64(fi.Size())
	} else {
		err = e
	}
	r.layer("checkpoint.bytes", size, "B")

	dims := make([]int, ps)
	shards := make([]*checkpoint.LevelState, ps)
	for col := range shards {
		lo, hi := dim*col/ps, dim*(col+1)/ps
		dims[col] = hi - lo
		shard := *st
		shard.U = [][]float64{state[lo:hi]}
		shards[col] = &shard
	}
	r.layer("checkpoint.grid_commit_ms", 1e3*r.sample(func() {
		for col, shard := range shards {
			if e := checkpoint.SaveGridShard(dir, col, shard); e != nil {
				err = e
			}
		}
		g := &checkpoint.GridState{Block: st.Block, StepsDone: pt, TimeRanks: pt, SpaceRanks: ps, T: st.T, Dims: dims}
		if e := checkpoint.CommitGridManifest(dir, g); e != nil {
			err = e
		}
	}), "ms")
	if err != nil {
		r.problem("checkpoint probe: %v", err)
	}
}

// probeSpec is the smallest job the daemon accepts: the submit probes
// measure admission, not the solve behind it.
const probeSpec = `{"tenant":"probe","system":{"kind":"blob","n":8,"seed":1,"sigma":0.2},"t0":0,"t1":0.1,"steps":1,"pt":1,"ps":1}`

// serverProbes times the daemon's admission path piece by piece: spec
// parsing, one fsynced journal append, Daemon.Submit, and the whole
// POST /jobs handler (driven through a recorder, so no socket is
// opened).
func (r *run) serverProbes() {
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	var spec *server.JobSpec
	r.layer("server.spec_parse_us", 1e6*r.sample(func() {
		s, e := server.ParseJobSpec([]byte(probeSpec))
		spec = s
		keep(e)
	}), "us")

	journal, _, e := server.OpenJournal(filepath.Join(r.subdir("journal"), "probe.nblj"))
	keep(e)
	appendUs := 0.0
	if e == nil {
		rec := server.Record{Kind: server.RecStart, Job: 1, Data: make([]byte, 8)}
		appendUs = 1e6 * r.sample(func() { keep(journal.Append(rec)) })
		keep(journal.Close())
	}
	r.layer("server.journal_append_us", appendUs, "us")

	submitUs, httpUs := 0.0, 0.0
	d, e := server.New(server.Config{Dir: r.subdir("nbodyd-probe"), Workers: fleetWorkers, QueueDepth: fleetQueueDepth})
	keep(e)
	if e == nil && spec != nil {
		// Eight tiny jobs at a time stay far below the queue depth;
		// each batch is waited out before the next.
		const batch = 8
		wait := func(ids []uint64) {
			for _, id := range ids {
				_, e := d.WaitJob(id, jobTimeout)
				keep(e)
			}
		}
		var direct, viaHTTP []float64
		var ids []uint64
		for i := 0; i < batch; i++ {
			var id uint64
			direct = append(direct, timeIt(func() { id, e = d.Submit(spec) }))
			keep(e)
			ids = append(ids, id)
		}
		wait(ids)
		ids = ids[:0]
		handler := d.Handler()
		for i := 0; i < batch; i++ {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader([]byte(probeSpec)))
			viaHTTP = append(viaHTTP, timeIt(func() { handler.ServeHTTP(rec, req) }))
			var reply struct {
				ID uint64 `json:"id"`
			}
			if rec.Code != http.StatusAccepted {
				keep(fmt.Errorf("POST /jobs: status %d: %s", rec.Code, rec.Body.String()))
				continue
			}
			keep(json.Unmarshal(rec.Body.Bytes(), &reply))
			ids = append(ids, reply.ID)
		}
		wait(ids)
		d.Close()
		submitUs, httpUs = 1e6*Median(direct), 1e6*Median(viaHTTP)
	}
	r.layer("server.submit_us", submitUs, "us")
	r.layer("server.http_submit_us", httpUs, "us")
	if err != nil {
		r.problem("server probe: %v", err)
	}
}

// schedProbes times the two schedulers with no work in them: one
// work-stealing Run over 1024 empty items on two workers, and one
// hand-off to the daemon's bounded pool.
func (r *run) schedProbes() {
	r.layer("sched.run_overhead_us", 1e6*r.sample(func() {
		sched.Run(2, 1024, 0, func(_, _, _ int) {})
	}), "us")
	pool := sched.NewPool(2)
	const batch = 256
	r.layer("sched.pool_submit_us", 1e6*r.sample(func() {
		for i := 0; i < batch; i++ {
			pool.Submit(func() {})
		}
	})/batch, "us")
	pool.Close()
}
