// Package hot implements the parallel hashed-oct-tree Barnes-Hut code
// — the analog of PEPC, the Pretty Efficient Parallel Coulomb Solver —
// on top of the message-passing runtime of package mpi (Section III-A
// of the paper).
//
// One force evaluation performs, exactly as PEPC does:
//
//  1. Domain decomposition: Morton keys are computed for the local
//     particles and a sample sort along the space-filling curve
//     redistributes them so that every rank owns a contiguous key
//     range.
//  2. Local tree construction over the rank's particles (package tree),
//     with cells forced to subdivide across ownership boundaries.
//  3. Branch-node exchange: the minimal set of fully-owned cells
//     covering each rank's key range is allgathered, and every rank
//     ships each other rank, in one Alltoall, the cells below its
//     branches that the receiver's targets may open under the MAC.
//     Each rank then grafts what it received onto its local tree —
//     the other ranks' branches, the shared cells above all branches
//     with merged moments, and the prefetched cells below the remote
//     branches, installed by key — which makes the local tree the
//     locally essential tree of Dubinski's parallel tree code, one
//     tree.Tree, assembled before the walk (DESIGN.md §15).
//  4. Tree traversal with the MAC s/d ≤ θ: tree.Solver evaluates the
//     local targets against that tree, exactly as it evaluates a
//     serial tree, on one goroutine or on the node-level workers
//     (PEPC's Pthreads layer) that steal tiles of targets. It never
//     communicates: the tree is read-only by then, and a remote cell
//     the exchange did not ship is a bug reported by a typed panic.
//  5. Results are routed back to the particles' original owners, so
//     the caller's particle layout (and therefore the ODE state carried
//     by the time integrators) never changes.
package hot

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Config parameterizes the parallel tree solver.
type Config struct {
	// Sm and Scheme select the vortex kernel and stretching form.
	Sm     kernel.Smoothing
	Scheme kernel.Scheme
	// Theta is the MAC parameter.
	Theta float64
	// LeafCap is the leaf bucket size (default 8).
	LeafCap int
	// Dipole enables cluster dipole corrections for vortex velocities.
	Dipole bool
	// Eps is the Plummer softening of the Coulomb discipline.
	Eps float64
	// Model, when non-nil, advances the rank's virtual clock with the
	// modeled compute cost of each phase.
	Model *machine.CostModel
	// WeightedBalance enables work-based domain decomposition: the
	// splitter choice weights each particle by its interaction count
	// from the previous evaluation, the load-balancing strategy of
	// PEPC. The first evaluation (no history) falls back to uniform
	// weights.
	WeightedBalance bool
	// Threads is the number of traversal worker goroutines per rank —
	// the worker half of PEPC's node-level Pthreads layer (Section
	// III-A), tree.Solver's Workers; the communicator thread's job is
	// done by the prefetch before the workers start. Values ≤ 1 select
	// the single-threaded path.
	Threads int
	// Branch selects the allgather that carries the branch lists (and
	// the rank boxes) in the branch-node exchange: BranchBatched (the
	// zero value) or BranchRing. Results are bitwise identical either
	// way.
	Branch BranchMode
	// Traversal is tree.Solver.Traversal for the evaluation of the
	// locally essential tree: tree.TraversalList (the default: the tile
	// walk, both disciplines) or the per-particle
	// tree.TraversalRecursive, bitwise equal.
	Traversal tree.TraversalMode
	// Tel, when non-nil, receives this rank's per-phase timings and
	// work counters (see probe.go for the metric names). The registry
	// must be private to the rank; merge Snapshots across ranks
	// afterwards. A nil registry costs nothing on the hot path.
	Tel *telemetry.Registry
	// Hook, when non-nil, observes every locally built tree before use
	// (guard layer: moment-flip injection + ABFT verification with
	// rebuild on detection). The rebuild loop is collective-free, so
	// ranks may retry independently. Nil costs nothing.
	Hook tree.BuildHook
	// Layout is read by nothing; it goes when internal/bench stops naming it.
	Layout particle.Layout
}

// Stats describes the work of the most recent evaluation on this rank.
type Stats struct {
	NLocal        int   // particles owned after redistribution
	Kept          int   // particles that stayed on this rank, copied in place
	Routed        int   // particles sent to another rank
	LocalBranches int   // branch nodes contributed by this rank
	TotalBranches int   // branch nodes in the global tree
	Interactions  int64 // MAC-accepted cells + direct particle pairs
	Prefetched    int64 // remote cells resolved by the branch exchange
	Steals        int64 // work-stealing operations of the traversal workers

	// MACAccepts and MACRejects split the traversal decisions: cells
	// accepted as single interaction partners vs cells the MAC opened.
	// The direct particle-pair share is Interactions − MACAccepts.
	MACAccepts, MACRejects int64

	// WorkImbalance is max(rank work)/mean(rank work) for this
	// evaluation (1 = perfectly balanced).
	WorkImbalance float64

	// Per-phase durations: virtual seconds when a Model drives the
	// rank clocks, host wall-clock seconds otherwise.
	TDecomp, TBuild, TBranch, TTraverse float64
}

// Solver is one rank's view of the parallel tree code.
type Solver struct {
	comm *mpi.Comm
	cfg  Config

	// Last holds the statistics of the most recent evaluation.
	Last Stats

	// probe holds the pre-resolved telemetry handles (all nil without
	// cfg.Tel) and meter attributes modeled compute charges per phase.
	probe probe
	meter *machine.Meter

	// ts evaluates the locally essential tree.
	ts tree.Solver

	// workWeights holds, per origin-local particle, the interaction
	// count of the previous evaluation of this solver (WeightedBalance
	// only): a level's history, never its sibling's.
	workWeights []float64

	// arena owns every per-evaluation allocation; each evaluation
	// resets it and invalidates what the previous one built. Solvers
	// made by WithTheta share it.
	arena *evalArena
}

// New returns a solver bound to the given (spatial) communicator, with
// an arena of its own.
func New(comm *mpi.Comm, cfg Config) *Solver {
	if cfg.LeafCap < 1 {
		cfg.LeafCap = 8
	}
	return newSolver(comm, cfg, new(evalArena))
}

// WithTheta returns a solver that differs from s only in the MAC
// parameter: it has s's communicator, configuration and build hook, and
// evaluates in s's arena — the coarse level of a space-time hierarchy,
// which is the fine level with a larger θ. Its statistics, work-weight
// history, telemetry handles and tree evaluator are its own. The two
// must take turns: an evaluation of either invalidates what the other's
// previous evaluation built, and they never evaluate concurrently.
func (s *Solver) WithTheta(theta float64) *Solver {
	cfg := s.cfg
	cfg.Theta = theta
	return newSolver(s.comm, cfg, s.arena)
}

// newSolver returns a solver on comm that evaluates in arena a.
func newSolver(comm *mpi.Comm, cfg Config, a *evalArena) *Solver {
	s := &Solver{comm: comm, cfg: cfg, arena: a, probe: newProbe(cfg.Tel), ts: tree.Solver{
		Sm: cfg.Sm, Scheme: cfg.Scheme, Theta: cfg.Theta, Dipole: cfg.Dipole,
		Workers: max(1, cfg.Threads), Traversal: cfg.Traversal,
	}}
	if cfg.Model != nil {
		s.meter = machine.NewMeter(*cfg.Model, cfg.Tel)
	}
	if cfg.Tel != nil {
		comm.AttachTelemetry(cfg.Tel)
	}
	return s
}

// BlockRange returns the particle range [lo, hi) of rank's contiguous
// share of n particles split size ways: the one partition formula, for
// callers that slice packed state or reassemble the full system.
func BlockRange(n, rank, size int) (lo, hi int) {
	return n * rank / size, n * (rank + 1) / size
}

// BlockPartition returns rank's contiguous share of the full system;
// it is how callers establish the initial (integrator-visible)
// ownership.
func BlockPartition(full *particle.System, rank, size int) *particle.System {
	lo, hi := BlockRange(full.N(), rank, size)
	out := &particle.System{Sigma: full.Sigma, Particles: make([]particle.Particle, hi-lo)}
	copy(out.Particles, full.Particles[lo:hi])
	return out
}

// Eval computes vortex velocities and stretching terms for the local
// particles of sys (this rank's share of the global system). All ranks
// of the communicator must call Eval collectively.
func (s *Solver) Eval(sys *particle.System, vel, stretch []vec.Vec3) {
	if len(vel) != sys.N() || len(stretch) != sys.N() {
		panic("hot: Eval output slices must have length N")
	}
	s.run(sys, tree.Vortex, vel, stretch, nil, nil)
}

// Coulomb computes the softened Coulomb potential and field for the
// local particles. Collective.
func (s *Solver) Coulomb(sys *particle.System, pot []float64, f []vec.Vec3) {
	if len(pot) != sys.N() || len(f) != sys.N() {
		panic("hot: Coulomb output slices must have length N")
	}
	s.run(sys, tree.Coulomb, nil, nil, pot, f)
}

// evalRT is the state of one evaluation on a rank. Its storage — the
// local system, the locally essential tree and the outputs — lives in
// the solver's arena.
type evalRT struct {
	s     *Solver
	a     *evalArena
	comm  *mpi.Comm
	me    int
	disc  tree.Discipline
	dom   tree.Domain
	ltree *tree.Tree // nil when the rank owns no particles
	local *particle.System
	// base is the number of local tree nodes: the graft appends the
	// remote and shared cells from there on.
	base int

	// Inclusive key interval this rank owns after the decomposition.
	myLo, myHi uint64

	stats *Stats
}

// clock is the phase clock: the virtual rank clock when a cost model
// drives it, host wall-clock otherwise (so unmodeled runs still get a
// meaningful per-phase breakdown).
func (s *Solver) clock() float64 {
	if s.cfg.Model == nil {
		return telemetry.Wall()
	}
	return s.comm.Now()
}

// run is one collective evaluation: the five phases below, each
// stamped on the phase clock and labelled for the profiler.
func (s *Solver) run(sys *particle.System, disc tree.Discipline, vel, stretch []vec.Vec3, pot []float64, ef []vec.Vec3) {
	s.Last = Stats{}
	st := &s.Last
	a := s.arena
	a.reset(s.comm.Size())
	a.local.Sigma = sys.Sigma
	rt := &evalRT{
		s: s, a: a, comm: s.comm, me: s.comm.Rank(), disc: disc,
		local: &a.local,
		stats: st,
	}

	t0 := s.clock()
	telemetry.LabelPhase(PhaseDecomp)
	rt.decompose(sys)
	t1 := s.clock()
	st.TDecomp = t1 - t0
	s.probe.decomp.Observe(st.TDecomp)

	telemetry.LabelPhase(PhaseBuild)
	rt.buildLocal()
	t2 := s.clock()
	st.TBuild = t2 - t1
	s.probe.build.Observe(st.TBuild)

	telemetry.LabelPhase(PhaseBranch)
	rt.exchangeBranches()
	t3 := s.clock()
	st.TBranch = t3 - t2
	s.probe.branch.Observe(st.TBranch)

	telemetry.LabelPhase(PhaseTraverse)
	rt.traverse()
	st.TTraverse = s.clock() - t3
	s.probe.traverse.Observe(st.TTraverse)
	telemetry.ClearPhaseLabel()

	rt.routeResults(sys, vel, stretch, pot, ef)
}

// decompose is phase 1: the global domain, then a sample sort along
// the space-filling curve that leaves every rank owning a contiguous
// key range and the particles in it (rt.local: the sources' runs in
// rank order, with origin indices so results can be routed back).
//
//lint:hotpath the decomposition: keys and sorts every particle of every evaluation, and routes or copies it
func (rt *evalRT) decompose(sys *particle.System) {
	s, a, comm := rt.s, rt.a, rt.comm
	p := comm.Size()
	n := sys.N()

	lo, hi := sys.Bounds()
	if n == 0 {
		lo = vec.V3(math.Inf(1), math.Inf(1), math.Inf(1))
		hi = vec.V3(math.Inf(-1), math.Inf(-1), math.Inf(-1))
	}
	a.lo = [3]float64{lo.X, lo.Y, lo.Z}
	a.hi = [3]float64{hi.X, hi.Y, hi.Z}
	mins := comm.AllreduceFloat64(a.lo[:], mpi.OpMin)
	maxs := comm.AllreduceFloat64(a.hi[:], mpi.OpMax)
	rt.dom = tree.NewDomain(vec.V3(mins[0], mins[1], mins[2]), vec.V3(maxs[0], maxs[1], maxs[2]))

	// Sorted by key with the tree's stable radix sort: keys[j] is the
	// key of position j, order[j] the particle there.
	a.keys = grow(a.keys, n)
	a.order = grow(a.order, n)
	keys, order := a.keys, a.order
	for i := range keys {
		keys[i] = rt.dom.Key(sys.Particles[i].Pos)
		order[i] = i
	}
	a.tree.SortKeys(keys, order)
	a.count[0] = int64(n)
	nGlobal := comm.AllreduceInt64(a.count[:], mpi.OpSum)[0]
	if s.meter != nil && n > 0 {
		comm.Advance(s.meter.Sort(n, nGlobal))
	}
	a.weights = grow(a.weights, n)
	weights := a.weights
	weighted := s.cfg.WeightedBalance && len(s.workWeights) == n
	for i := range weights {
		weights[i] = 1
		if weighted && s.workWeights[i] > 0 {
			weights[i] = s.workWeights[i]
		}
	}
	splitters := rt.sampleSplitters()
	rt.myLo, rt.myHi = ownedRange(splitters, rt.me, p)

	// Route each remote owner its range of sorted positions in one
	// exactly sized block. The own range is never encoded.
	a.bounds = ownerBounds(a.bounds, keys, splitters)
	bounds := a.bounds
	for r := range p {
		if r == rt.me {
			continue
		}
		blk := slices.Grow(a.route[r], (bounds[r+1]-bounds[r])*particleRecBytes)
		for j := bounds[r]; j < bounds[r+1]; j++ {
			i := order[j]
			blk = encodeParticle(blk, &sys.Particles[i], rt.me, i, weights[i])
		}
		a.route[r] = blk
	}
	kept := bounds[rt.me+1] - bounds[rt.me]
	rt.stats.Kept, rt.stats.Routed = kept, n-kept

	// The local system is the received runs in rank order with the own
	// range copied in at this rank's slot, Label zeroed as the wire
	// leaves it. A torn block rounds up here and fails typed in its
	// Reader before the extra slot is read.
	recv := comm.Alltoall(a.route)
	total := kept
	for r, raw := range recv {
		if r != rt.me {
			total += (len(raw) + particleRecBytes - 1) / particleRecBytes
		}
	}
	a.local.Particles = grow(a.local.Particles, total)
	a.originIdx = grow(a.originIdx, total)
	a.runs = grow(a.runs, p+1)
	q := 0
	for r, raw := range recv {
		a.runs[r] = q
		if r == rt.me {
			for j := bounds[r]; j < bounds[r+1]; j++ {
				i := order[j]
				a.local.Particles[q] = sys.Particles[i]
				a.local.Particles[q].Label = 0
				a.originIdx[q] = i
				q++
			}
			continue
		}
		for in := comm.Reader("Alltoall", r, raw); in.More(); q++ {
			a.local.Particles[q], _, a.originIdx[q], _ = decodeParticle(in.Next(particleRecBytes))
		}
	}
	a.runs[p] = q
	rt.stats.NLocal = q
}

// ownerBounds returns in dst the P + 1 bounds of the owners' ranges of
// sorted keys: owner r holds positions [bounds[r], bounds[r+1]). Owners
// ascend along the keys, so each bound is one binary search of the
// keys for a splitter, under the owner rule of ownedRange: a key equal
// to splitter r − 1 belongs to owner r.
func ownerBounds(dst []int, keys, splitters []uint64) []int {
	p := len(splitters) + 1
	dst = grow(dst, p+1)
	dst[0] = 0
	for r := 1; r < p; r++ {
		j, _ := slices.BinarySearch(keys[dst[r-1]:], splitters[r-1])
		dst[r] = dst[r-1] + j
	}
	dst[p] = len(keys)
	return dst
}

// buildLocal is phase 2: the local tree over the owned particles, with
// cells forced to subdivide across ownership boundaries, built into
// the arena (the guard's rebuild ladder reuses the same storage).
func (rt *evalRT) buildLocal() {
	s := rt.s
	if rt.local.N() == 0 {
		return
	}
	rt.ltree = tree.BuildArenaWithHook(s.cfg.Hook, &rt.a.tree, rt.local, tree.BuildConfig{
		LeafCap:    s.cfg.LeafCap,
		Discipline: rt.disc,
		Domain:     &rt.dom,
		OwnedLo:    rt.myLo, OwnedHi: rt.myHi, OwnedSet: true,
	})
	if s.meter != nil {
		rt.comm.Advance(s.meter.TreeBuild(rt.local.N()))
	}
}

// exchangeBranches is phase 3, the one place remote cells reach this
// rank: every rank's branch nodes and the cells every other rank
// pruned for this rank's box arrive, and the graft makes them part of
// the local tree. When it returns the locally essential tree is
// complete and read-only.
func (rt *evalRT) exchangeBranches() {
	s, a, comm := rt.s, rt.a, rt.comm
	a.branches = a.branches[:0]
	if rt.ltree != nil {
		a.branches = appendBranchNodes(a.branches, rt.ltree, rt.ltree.Root, rt.myLo, rt.myHi)
	}
	rt.stats.LocalBranches = len(a.branches)
	a.packed = slices.Grow(a.packed[:0], len(a.branches)*cellRecBytes)
	for _, idx := range a.branches {
		a.packed = encodeCell(a.packed, &rt.ltree.Nodes[idx], rt.disc)
	}
	if s.meter != nil {
		comm.Advance(s.meter.Branches(len(a.branches)))
	}

	// Every rank's post-redistribution bounding box (48 bytes), then
	// the branch lists with the prefetch walks against those boxes,
	// then one message per receiver with its pruned subtree.
	lo, hi := rt.local.Bounds()
	if rt.local.N() == 0 {
		lo = vec.V3(math.Inf(1), math.Inf(1), math.Inf(1))
		hi = vec.V3(math.Inf(-1), math.Inf(-1), math.Inf(-1))
	}
	a.wire = appendBox(a.wire[:0], lo, hi)
	// The walks read the boxes inside the branch allgather, which
	// reuses the communicator's result headers: decode them first.
	boxes := rt.allgather(a.wire, nil)
	a.boxes = grow(a.boxes, len(boxes))
	for r, raw := range boxes {
		if r != rt.me {
			in := comm.Reader("Allgather", r, raw)
			a.boxes[r][0], a.boxes[r][1] = decodeBox(in.Next(boxRecBytes))
		}
	}
	allBranches := rt.allgather(a.packed, rt.prefetchWalks)
	prefetched := comm.Alltoall(a.prefetch)

	total := 0
	for r, raw := range allBranches {
		for in := comm.Reader("Allgather", r, raw); in.More(); in.Next(cellRecBytes) {
			total++
		}
	}
	rt.stats.TotalBranches = total
	if s.meter != nil {
		comm.Advance(s.meter.Branches(total))
	}
	if rt.ltree != nil { // a rank without particles has no targets
		rt.graft(allBranches, prefetched)
	}
}

// allgather is the exchange's allgather in the configured algorithm.
// The Bruck rounds run overlap while their first messages are in
// flight; the ring has no such window and runs it first.
func (rt *evalRT) allgather(data []byte, overlap func()) [][]byte {
	if rt.s.cfg.Branch == BranchBatched {
		return rt.comm.AllgatherBatchedOverlap(data, overlap)
	}
	if overlap != nil {
		overlap()
	}
	return rt.comm.Allgather(data)
}

// traverse is phase 4: tree.Solver evaluates every local particle
// against the locally essential tree — on one goroutine, or on Threads
// workers stealing tiles of eight targets — writing outputs and
// per-target interaction counts by local index. It communicates with
// no other rank.
//
//lint:hotpath the traverse phase: runs every target of every evaluation
func (rt *evalRT) traverse() {
	s, a, ts := rt.s, rt.a, &rt.s.ts
	n := rt.local.N()
	a.workPer = grow(a.workPer, n)
	if n == 0 {
		return
	}
	defer rt.reportUnresolved()
	st := rt.stats
	switch rt.disc {
	case tree.Vortex:
		a.outVel = grow(a.outVel, n)
		a.outStr = grow(a.outStr, n)
		st.Interactions, st.MACAccepts, st.MACRejects = ts.EvalTree(rt.ltree, a.outVel, a.outStr, a.workPer)
		if s.meter != nil {
			rt.comm.Advance(s.meter.Vortex(st.Interactions, float64(ts.LastSched.Workers)))
		}
	case tree.Coulomb:
		a.outPot = grow(a.outPot, n)
		a.outE = grow(a.outE, n)
		st.Interactions, st.MACAccepts, st.MACRejects = ts.CoulombTree(rt.ltree, s.cfg.Eps, a.outPot, a.outE, a.workPer)
		if s.meter != nil {
			rt.comm.Advance(s.meter.Coulomb(st.Interactions, float64(ts.LastSched.Workers)))
		}
	}
	st.Steals = ts.LastSched.Steals
	if s.cfg.Threads > 1 {
		for _, b := range ts.LastSched.Busy {
			s.probe.workerBusy.Observe(b)
		}
	}
}

// routeResults is phase 5: the work-imbalance diagnostic, then results
// (and per-particle work, for the next evaluation's weighted
// decomposition) go back to the particles' original owners: one sized
// block per remote source run, and the own run written by index.
//
//lint:hotpath result routing: one record per routed particle per evaluation
func (rt *evalRT) routeResults(sys *particle.System, vel, stretch []vec.Vec3, pot []float64, ef []vec.Vec3) {
	s, a, comm := rt.s, rt.a, rt.comm
	st := rt.stats

	// Work-imbalance diagnostic: max over ranks vs mean.
	a.work[0] = 0
	for _, w := range a.workPer {
		a.work[0] += w
	}
	a.work[1] = a.work[0]
	wred := comm.AllreduceFloat64(a.work[0:1], mpi.OpSum)[0]
	wmax := comm.AllreduceFloat64(a.work[1:2], mpi.OpMax)[0]
	if mean := wred / float64(comm.Size()); mean > 0 {
		st.WorkImbalance = wmax / mean
	}
	s.probe.record(st)

	recWords := 8
	if rt.disc == tree.Coulomb {
		recWords = 6
	}
	recBytes := 8 * recWords
	for r, blk := range a.results {
		if r == rt.me {
			continue
		}
		lo, hi := a.runs[r], a.runs[r+1]
		blk = slices.Grow(blk, (hi-lo)*recBytes)
		for q := lo; q < hi; q++ {
			blk = appendF(blk, float64(a.originIdx[q]))
			switch rt.disc {
			case tree.Vortex:
				blk = appendF(blk, a.outVel[q].X)
				blk = appendF(blk, a.outVel[q].Y)
				blk = appendF(blk, a.outVel[q].Z)
				blk = appendF(blk, a.outStr[q].X)
				blk = appendF(blk, a.outStr[q].Y)
				blk = appendF(blk, a.outStr[q].Z)
			case tree.Coulomb:
				blk = appendF(blk, a.outPot[q])
				blk = appendF(blk, a.outE[q].X)
				blk = appendF(blk, a.outE[q].Y)
				blk = appendF(blk, a.outE[q].Z)
			}
			blk = appendF(blk, a.workPer[q])
		}
		a.results[r] = blk
	}
	if s.cfg.WeightedBalance {
		// Every entry is overwritten below: each of the caller's
		// particles is in exactly one run.
		s.workWeights = grow(s.workWeights, sys.N())
	}
	// The own run is written by index; the others arrive as records.
	for q := a.runs[rt.me]; q < a.runs[rt.me+1]; q++ {
		idx := a.originIdx[q]
		switch rt.disc {
		case tree.Vortex:
			vel[idx], stretch[idx] = a.outVel[q], a.outStr[q]
		case tree.Coulomb:
			pot[idx], ef[idx] = a.outPot[q], a.outE[q]
		}
		if s.cfg.WeightedBalance {
			s.workWeights[idx] = a.workPer[q]
		}
	}
	for r, raw := range comm.Alltoall(a.results) {
		for in := comm.Reader("Alltoall", r, raw); in.More(); {
			rec := in.Next(recBytes)
			idx := int(getF(rec))
			switch rt.disc {
			case tree.Vortex:
				vel[idx] = vec.V3(getF(rec[8:]), getF(rec[16:]), getF(rec[24:]))
				stretch[idx] = vec.V3(getF(rec[32:]), getF(rec[40:]), getF(rec[48:]))
			case tree.Coulomb:
				pot[idx] = getF(rec[8:])
				ef[idx] = vec.V3(getF(rec[16:]), getF(rec[24:]), getF(rec[32:]))
			}
			if s.cfg.WeightedBalance {
				s.workWeights[idx] = getF(rec[recBytes-8:])
			}
		}
	}
}

// sampleSplitters draws samples from this rank's sorted keys —
// positioned at equal-weight quantiles of the rank's total particle
// work — and returns P−1 global splitters. With uniform weights this
// reduces to the classical equal-count sample sort.
func (rt *evalRT) sampleSplitters() []uint64 {
	a, comm := rt.a, rt.comm
	p := comm.Size()
	if p == 1 {
		return nil
	}
	const perRank = 24
	keys, order, weights := a.keys, a.order, a.weights
	mine := a.samples[:0]
	if len(order) > 0 {
		total := 0.0
		for _, i := range order {
			total += weights[i]
		}
		cum, next := 0.0, 1
		for j, i := range order {
			cum += weights[i]
			for next <= perRank && cum >= float64(next)*total/(perRank+1) {
				mine = append(mine, keys[j])
				next++
			}
		}
	}
	a.samples = mine
	a.wire = a.wire[:0]
	for _, k := range mine {
		a.wire = binary.LittleEndian.AppendUint64(a.wire, k)
	}
	pool := a.samplePool[:0]
	for r, raw := range comm.Allgather(a.wire) {
		for in := comm.Reader("Allgather", r, raw); in.More(); {
			pool = append(pool, binary.LittleEndian.Uint64(in.Next(8)))
		}
	}
	a.samplePool = pool
	slices.Sort(pool)
	a.splitters = grow(a.splitters, p-1)
	for r := range a.splitters {
		if len(pool) == 0 {
			a.splitters[r] = uint64(r+1) << 40 // arbitrary but consistent
		} else {
			a.splitters[r] = pool[(r+1)*len(pool)/p]
		}
	}
	return a.splitters
}

// ownedRange returns the inclusive key interval of a rank.
func ownedRange(splitters []uint64, rank, p int) (lo, hi uint64) {
	lo = 0
	hi = uint64(1)<<(3*tree.KeyBits) - 1
	if rank > 0 {
		lo = splitters[rank-1]
	}
	if rank < p-1 {
		hi = splitters[rank] - 1
	}
	return lo, hi
}

// appendBranchNodes walks the local tree below idx and appends the
// highest cells fully contained in the rank's key interval (the PEPC
// branch nodes).
func appendBranchNodes(out []int32, t *tree.Tree, idx int, lo, hi uint64) []int32 {
	nd := &t.Nodes[idx]
	clo, chi := tree.KeyRange(nd.PKey())
	if clo >= lo && chi <= hi {
		return append(out, int32(idx))
	}
	if nd.Leaf {
		panic(fmt.Sprintf("hot: leaf cell %d straddles ownership [%x,%x]", idx, lo, hi))
	}
	for _, ci := range nd.Children {
		if ci >= 0 {
			out = appendBranchNodes(out, t, int(ci), lo, hi)
		}
	}
	return out
}

// unresolvedCell is the panic value of a traversal that reaches a
// remote cell whose children (or, for a leaf, particles) the branch
// exchange did not ship: the sender's prefetch pruning was not
// conservative for this rank's targets, which only a bug can cause.
type unresolvedCell struct {
	pkey        uint64
	owner, rank int
}

func (e unresolvedCell) Error() string {
	return fmt.Sprintf("hot: rank %d reached cell %x of rank %d, which the branch exchange did not resolve", e.rank, e.pkey, e.owner)
}

// reportUnresolved, deferred by traverse, turns the tree's panic on
// opening a cell without children — a remote cell of the graft that
// no reply resolved — into the typed unresolvedCell naming the cell,
// its owner and this rank.
func (rt *evalRT) reportUnresolved() {
	r := recover()
	if r == nil {
		return
	}
	if nd, ok := r.(*tree.Node); ok {
		for i := rt.base; i < len(rt.ltree.Nodes); i++ {
			if &rt.ltree.Nodes[i] == nd {
				panic(unresolvedCell{pkey: nd.PKey(), owner: int(rt.a.owner[i-rt.base]), rank: rt.me})
			}
		}
	}
	panic(r)
}

// appendCellReply appends the reply record for local cell idx to out:
// header (pkey, child count), child cells, and the inline particles of
// leaf children (or of the cell itself when it is a leaf).
func (rt *evalRT) appendCellReply(out []byte, idx int) []byte {
	t := rt.ltree
	nd := &t.Nodes[idx]
	out = binary.LittleEndian.AppendUint64(out, nd.PKey())
	if nd.Leaf {
		out = binary.LittleEndian.AppendUint64(out, 0) // zero children = leaf reply
		out = binary.LittleEndian.AppendUint64(out, uint64(nd.Count))
		for i := nd.First; i < nd.First+nd.Count; i++ {
			out = encodeParticle(out, t.Particle(i), rt.me, -1, 1)
		}
		return out
	}
	nkids := 0
	for _, ci := range nd.Children {
		if ci >= 0 {
			nkids++
		}
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(nkids))
	for _, ci := range nd.Children {
		if ci >= 0 {
			out = encodeCell(out, &t.Nodes[ci], rt.disc)
		}
	}
	// Inline the particles of leaf children: the parent's record
	// resolves them too.
	for _, ci := range nd.Children {
		if ci < 0 || !t.Nodes[ci].Leaf {
			continue
		}
		k := &t.Nodes[ci]
		for i := k.First; i < k.First+k.Count; i++ {
			out = encodeParticle(out, t.Particle(i), rt.me, -1, 1)
		}
	}
	return out
}
