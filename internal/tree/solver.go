package tree

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// Solver is the Barnes-Hut evaluator: every Eval rebuilds the tree for
// the current particle positions (as PEPC does per force evaluation)
// and evaluates the field at every target particle, scheduled with work
// stealing. By default the targets are packed eight to a tile in sorted
// order and each tile is evaluated by one lane-masked walk from the
// root (tileWalk), for both disciplines; Traversal selects the classic
// per-particle recursive walk instead. EvalTree and CoulombTree are the
// evaluation half alone, over a tree built elsewhere.
type Solver struct {
	// Sm and Scheme select the smoothing kernel and stretching form.
	Sm     kernel.Smoothing
	Scheme kernel.Scheme
	// Theta is the MAC parameter; larger is faster and less accurate.
	// The paper's fine/coarse PFASST propagators use 0.3 / 0.6.
	Theta float64
	// LeafCap is the leaf bucket size (NewSolver sets 8; 1 is the
	// classical tree).
	LeafCap int
	// Workers bounds traversal concurrency (≤0: GOMAXPROCS).
	Workers int
	// Dipole enables the cluster dipole correction for velocities.
	Dipole bool
	// Traversal selects the evaluator: the zero value, TraversalList,
	// walks the targets once per tile of eight (it builds no lists),
	// and TraversalRecursive walks the tree once per particle. Both
	// sum the same terms in the same order, so results are bitwise
	// equal.
	Traversal TraversalMode
	// Hook, when non-nil, observes every built tree before use (guard
	// layer: moment-flip injection + ABFT verification with rebuild on
	// detection). Nil costs nothing.
	Hook BuildHook

	// stealGrain is the work-stealing chunk size in tiles (≤0:
	// automatic); only the schedule-invariance test sets it.
	stealGrain int

	evals        atomic.Int64
	interactions atomic.Int64
	slots        atomic.Int64

	// Per-discipline build arenas plus walk scratch: every per-step
	// allocation of Eval/Coulomb reuses the previous step's capacity,
	// so the single-worker hot path is allocation-free in steady state.
	arenaV, arenaC Arena
	walks          []tileWalk // one per worker
	busyBuf        [1]float64

	// The evaluation in progress: its legs, and the output slices its
	// targets' results are written to by original index (vel, stretch
	// for vortex; pot, f for Coulomb).
	legs         legs
	vel, stretch []vec.Vec3
	pot          []float64
	f            []vec.Vec3
	work         []float64

	// LastTree is the tree of the most recent Eval (for inspection by
	// experiments); it is overwritten on every call.
	LastTree *Tree
	// LastSched is the scheduler report of the most recent evaluation:
	// steal count and per-worker busy seconds.
	LastSched sched.Stats
}

// NewSolver returns a tree evaluator with the given kernel, stretching
// scheme and MAC parameter θ, with dipole corrections enabled and a
// bucket size of 8.
func NewSolver(sm kernel.Smoothing, scheme kernel.Scheme, theta float64) *Solver {
	return &Solver{Sm: sm, Scheme: scheme, Theta: theta, LeafCap: 8, Dipole: true}
}

// Name implements field.Evaluator.
func (s *Solver) Name() string {
	return fmt.Sprintf("tree/%s/theta=%.2f", s.Sm.Name(), s.Theta)
}

// Stats implements field.Evaluator.
func (s *Solver) Stats() field.Stats {
	return field.Stats{
		Evaluations:  s.evals.Load(),
		Interactions: s.interactions.Load(),
	}
}

// LaneSlots is the number of vector slots the vortex tile walks have
// run: over every stream item, its sources (one for a cell) times
// kernel.TileWidth, the lanes outside the item's mask included. Over
// Eval alone, Stats().Interactions ÷ LaneSlots is the occupancy of the
// vector loop.
func (s *Solver) LaneSlots() int64 { return s.slots.Load() }

// Eval implements field.Evaluator: Barnes-Hut velocities and
// stretching terms for all particles — the tree build, then EvalTree.
//
//lint:hotpath steady-state vortex evaluation: 0 allocs/op contract (BENCH_PR6, ci.sh layout lane)
func (s *Solver) Eval(sys *particle.System, vel, stretch []vec.Vec3) {
	n := sys.N()
	if len(vel) != n || len(stretch) != n {
		panic("tree: Eval output slices must have length N")
	}
	s.evals.Add(1)
	t := BuildArenaWithHook(s.Hook, &s.arenaV, sys,
		BuildConfig{LeafCap: s.LeafCap, Discipline: Vortex})
	s.LastTree = t
	inter, _, _ := s.EvalTree(t, vel, stretch, nil)
	s.interactions.Add(inter)
}

// EvalTree evaluates velocities and stretching terms at every particle
// of the system t was built over — sorted positions [0, len(t.Order))
// — against the whole of t from t.Root. Package hot evaluates its
// locally essential tree through it: there those positions are the
// local particles, and the graft's remote particles lie beyond them.
// The targets are packed eight to a tile in sorted order, and each tile
// is evaluated by one lane-masked walk from the root (or, under
// TraversalRecursive, by one walk per target), on one worker or on
// Workers with work stealing over the tiles. Each target's results,
// and with a non-nil work its interaction count, are written at its
// index in that system. It returns the interaction, MAC-accept and
// MAC-reject totals; LastSched reports the schedule.
//
//lint:hotpath steady-state vortex evaluation: shares the zero-alloc single-worker bypass with Eval
func (s *Solver) EvalTree(t *Tree, vel, stretch []vec.Vec3, work []float64) (inter, accepts, rejects int64) {
	vb := kernel.NewVortexBatch(kernel.Pairwise{Sm: s.Sm, Sigma: t.sys.Sigma})
	s.legs = legs{disc: Vortex, vb: vb, dipole: s.Dipole}
	s.vel, s.stretch, s.work = vel, stretch, work
	return s.evalTree(t)
}

// Coulomb evaluates the softened Coulomb potential and field for all
// particles with the tree: the build, then CoulombTree.
//
//lint:hotpath steady-state Coulomb evaluation: shares the zero-alloc single-worker bypass with Eval
func (s *Solver) Coulomb(sys *particle.System, eps float64, pot []float64, f []vec.Vec3) {
	n := sys.N()
	if len(pot) != n || len(f) != n {
		panic("tree: Coulomb output slices must have length N")
	}
	s.evals.Add(1)
	t := BuildArenaWithHook(s.Hook, &s.arenaC, sys,
		BuildConfig{LeafCap: s.LeafCap, Discipline: Coulomb})
	s.LastTree = t
	inter, _, _ := s.CoulombTree(t, eps, pot, f, nil)
	s.interactions.Add(inter)
}

// CoulombTree is EvalTree for the Coulomb discipline: the potential and
// field at every particle of the system t was built over, with
// softening eps.
//
//lint:hotpath steady-state Coulomb evaluation: shares the zero-alloc single-worker bypass with Eval
func (s *Solver) CoulombTree(t *Tree, eps float64, pot []float64, f []vec.Vec3, work []float64) (inter, accepts, rejects int64) {
	s.legs = legs{disc: Coulomb, eps: eps}
	s.pot, s.f, s.work = pot, f, work
	return s.evalTree(t)
}

// evalTree is the schedule of both disciplines: the tiles of the
// targets of t on one worker, or on Workers with work stealing.
func (s *Solver) evalTree(t *Tree) (inter, accepts, rejects int64) {
	tiles := (len(t.Order) + kernel.TileWidth - 1) / kernel.TileWidth
	nw := s.workerCount(tiles)
	if cap(s.walks) < nw {
		s.walks = make([]tileWalk, nw)
	}
	s.walks = s.walks[:nw]
	if nw == 1 {
		// Single-worker bypass: no scheduler, no goroutines — with
		// arena-backed build and the solver-held walk state, a
		// steady-state evaluation performs zero heap allocations.
		t0 := telemetry.Wall()
		c := s.evalTiles(t, 0, tiles, &s.walks[0])
		s.busyBuf[0] = telemetry.Wall() - t0
		s.LastSched = sched.Stats{Workers: 1, Busy: s.busyBuf[:]}
		return c.inter, c.accepts, c.rejects
	}
	var sum atomicCounts
	//lint:ignore allocfree work-stealing dispatch allocates one closure per evaluation; the zero-alloc contract is the single-worker bypass above
	s.LastSched = sched.Run(nw, tiles, s.stealGrain, func(worker, lo, hi int) {
		sum.add(s.evalTiles(t, lo, hi, &s.walks[worker]))
	})
	return sum.load()
}

// evalTiles evaluates tiles [lo, hi) of the targets — target i, at
// sorted position i, is lane i%TileWidth of tile i/TileWidth — and
// writes their results by original index.
func (s *Solver) evalTiles(t *Tree, lo, hi int, w *tileWalk) (c counts) {
	const tw = kernel.TileWidth
	end := min(hi*tw, len(t.Order))
	var slots int64
	for k := lo * tw; k < end; k += tw {
		n := min(tw, end-k)
		if s.Traversal == TraversalList {
			w.walk(t, &s.legs, s.Theta, k, n)
			slots += w.slots
		}
		for l := range n {
			c.add(s.store(t, w, k+l))
		}
	}
	s.slots.Add(slots)
	return c
}

// store writes the results of the target at sorted position i — its
// lane of w, or under TraversalRecursive its own per-particle walk —
// by original index and returns its counters.
func (s *Solver) store(t *Tree, w *tileWalk, i int) (c counts) {
	orig, l := t.Order[i], i-w.first
	recursive := s.Traversal == TraversalRecursive
	if s.legs.disc == Coulomb {
		var res CoulombResult
		if recursive {
			res = t.coulombAt(int32(t.Root), t.Particle(i).Pos, s.Theta, s.legs.eps, i)
		} else {
			res = w.coulombResult(l)
		}
		s.pot[orig], s.f[orig] = res.Phi, res.E
		c = counts{res.Interactions, res.CellAccepts, res.Rejects}
	} else {
		var u vec.Vec3
		var grad vec.Mat3
		if recursive {
			res := t.vortexAt(int32(t.Root), t.Particle(i).Pos, s.Theta, i, &s.legs.vb, s.legs.dipole)
			u, grad, c = res.U, res.Grad, counts{res.Interactions, res.CellAccepts, res.Rejects}
		} else {
			u, grad, c = w.vortexLane(l)
		}
		s.vel[orig] = u
		s.stretch[orig] = s.Scheme.Stretch(grad, t.Particle(i).Alpha)
	}
	if s.work != nil {
		s.work[orig] = float64(c.inter)
	}
	return c
}

// counts are the work counters of a run of targets.
type counts struct{ inter, accepts, rejects int64 }

func (c *counts) add(d counts) {
	c.inter += d.inter
	c.accepts += d.accepts
	c.rejects += d.rejects
}

// atomicCounts is counts summed across scheduler workers.
type atomicCounts struct{ inter, accepts, rejects atomic.Int64 }

func (c *atomicCounts) add(d counts) {
	c.inter.Add(d.inter)
	c.accepts.Add(d.accepts)
	c.rejects.Add(d.rejects)
}

func (c *atomicCounts) load() (inter, accepts, rejects int64) {
	return c.inter.Load(), c.accepts.Load(), c.rejects.Load()
}

// workerCount is the number of workers of an n-item schedule: Workers
// (≤0: GOMAXPROCS) clamped to [1, n]. The evaluators pass it to
// sched.Run, so worker ids index per-worker state sized by it.
func (s *Solver) workerCount(n int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

var _ field.Evaluator = (*Solver)(nil)
