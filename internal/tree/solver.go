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
// and evaluates the field at every target particle. Targets are
// processed group by group, scheduled with work stealing; by default
// each group goes through the two-phase interaction-list evaluator (see
// interaction.go), and Traversal selects the classic per-particle
// recursive walk instead. EvalGroups and CoulombGroups are the
// evaluation half alone, over a tree built elsewhere.
type Solver struct {
	// Sm and Scheme select the smoothing kernel and stretching form.
	Sm     kernel.Smoothing
	Scheme kernel.Scheme
	// Theta is the MAC parameter; larger is faster and less accurate.
	// The paper's fine/coarse PFASST propagators use 0.3 / 0.6.
	Theta float64
	// LeafCap is the leaf bucket size (default 1 = classical tree).
	LeafCap int
	// Workers bounds traversal concurrency (≤0: GOMAXPROCS).
	Workers int
	// Dipole enables the cluster dipole correction for velocities.
	Dipole bool
	// Traversal selects the evaluator of a target group: TraversalList
	// (default) builds one interaction list per group, and
	// TraversalRecursive walks the tree once per particle. Both sum the
	// same terms in the same order, so results are bitwise equal.
	Traversal TraversalMode
	// Hook, when non-nil, observes every built tree before use (guard
	// layer: moment-flip injection + ABFT verification with rebuild on
	// detection). Nil costs nothing.
	Hook BuildHook

	// stealGrain is the work-stealing chunk size in target groups (≤0:
	// automatic); only the schedule-invariance test sets it.
	stealGrain int

	evals        atomic.Int64
	interactions atomic.Int64

	// Per-discipline build arenas plus group/list scratch: every
	// per-step allocation of Eval/Coulomb reuses the previous step's
	// capacity, so the single-worker hot path is allocation-free in
	// steady state.
	arenaV, arenaC Arena
	vb             kernel.VortexBatch // this Eval's pair kernel (σ is the system's)
	groupsBuf      []int32
	scratchList    InteractionList
	busyBuf        [1]float64

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

// Eval implements field.Evaluator: Barnes-Hut velocities and
// stretching terms for all particles — the tree build, then EvalGroups
// over the target groups of every particle.
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
	s.groupsBuf = t.AppendGroups(s.groupsBuf[:0], s.groupCap())
	inter, _, _ := s.EvalGroups(t, s.groupsBuf, vel, stretch, nil)
	s.interactions.Add(inter)
}

// EvalGroups evaluates velocities and stretching terms at the particles
// of the target groups — cells of t, each a contiguous run of t.Order —
// against the whole of t from t.Root: by interaction list per group or
// by per-particle walk (Traversal), on one worker or on Workers with
// work stealing over the groups. Each target's results, and with a
// non-nil work its interaction count, are written at its index in the
// system t was built over. It returns the interaction, MAC-accept and
// MAC-reject totals; LastSched reports the schedule. Package hot
// evaluates its locally essential tree through it, with the local cells
// as the groups.
//
//lint:hotpath steady-state vortex evaluation: shares the zero-alloc single-worker bypass with Eval
func (s *Solver) EvalGroups(t *Tree, groups []int32, vel, stretch []vec.Vec3, work []float64) (inter, accepts, rejects int64) {
	s.vb = kernel.NewVortexBatch(kernel.Pairwise{Sm: s.Sm, Sigma: t.sys.Sigma})
	if s.workerCount(len(groups)) == 1 {
		// Single-worker bypass: no scheduler, no goroutines, no pool —
		// with arena-backed build and the solver-held scratch list, a
		// steady-state Eval performs zero heap allocations.
		t0 := telemetry.Wall()
		var c counts
		for _, g := range groups {
			c.add(s.evalVortexGroup(t, g, vel, stretch, work, &s.scratchList))
		}
		s.busyBuf[0] = telemetry.Wall() - t0
		s.LastSched = sched.Stats{Workers: 1, Busy: s.busyBuf[:]}
		return c.inter, c.accepts, c.rejects
	}
	var total atomicCounts
	//lint:ignore allocfree work-stealing dispatch allocates one closure per Eval; the zero-alloc contract is the single-worker bypass above
	s.LastSched = sched.Run(s.Workers, len(groups), s.stealGrain, func(_, lo, hi int) {
		list := GetInteractionList()
		var c counts
		for gi := lo; gi < hi; gi++ {
			c.add(s.evalVortexGroup(t, groups[gi], vel, stretch, work, list))
		}
		PutInteractionList(list)
		total.add(c)
	})
	return total.load()
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

// evalVortexGroup evaluates every particle of target group g — against
// the group's interaction list, built into list, or by a walk from the
// root — and writes its results by original index.
func (s *Solver) evalVortexGroup(t *Tree, g int32, vel, stretch []vec.Vec3, work []float64, list *InteractionList) (c counts) {
	nd := &t.Nodes[g]
	byList := s.Traversal == TraversalList
	if byList {
		list.Reset()
		gc, ge := t.GroupBounds(nd.First, nd.Count)
		t.AppendInteractionList(list, MACBarnesHut, s.Theta, int32(t.Root), gc, ge)
	}
	for i := nd.First; i < nd.First+nd.Count; i++ {
		orig := t.Order[i]
		p := t.Particle(i)
		var res VortexResult
		if byList {
			res = t.evalVortexList(list, s.Theta, p.Pos, i, &s.vb, s.Dipole)
		} else {
			res = t.vortexAt(int32(t.Root), p.Pos, s.Theta, i, &s.vb, s.Dipole)
		}
		vel[orig] = res.U
		stretch[orig] = s.Scheme.Stretch(res.Grad, p.Alpha)
		if work != nil {
			work[orig] = float64(res.Interactions)
		}
		c.add(counts{res.Interactions, res.CellAccepts, res.Rejects})
	}
	return c
}

// workerCount is the number of workers an n-item schedule would use —
// the same clamping sched.Run applies.
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

// groupCap is the target-group size of the list evaluator: groups
// larger than a leaf amortize one list-build walk over several leaf
// cells.
func (s *Solver) groupCap() int { return max(s.LeafCap, 8) }

// Coulomb evaluates the softened Coulomb potential and field for all
// particles with the tree: the build, then CoulombGroups.
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
	s.groupsBuf = t.AppendGroups(s.groupsBuf[:0], s.groupCap())
	inter, _, _ := s.CoulombGroups(t, s.groupsBuf, eps, pot, f, nil)
	s.interactions.Add(inter)
}

// CoulombGroups is EvalGroups for the Coulomb discipline.
//
//lint:hotpath steady-state Coulomb evaluation: shares the zero-alloc single-worker bypass with Eval
func (s *Solver) CoulombGroups(t *Tree, groups []int32, eps float64, pot []float64, f []vec.Vec3, work []float64) (inter, accepts, rejects int64) {
	if s.workerCount(len(groups)) == 1 {
		t0 := telemetry.Wall()
		var c counts
		for _, g := range groups {
			c.add(s.evalCoulombGroup(t, g, eps, pot, f, work, &s.scratchList))
		}
		s.busyBuf[0] = telemetry.Wall() - t0
		s.LastSched = sched.Stats{Workers: 1, Busy: s.busyBuf[:]}
		return c.inter, c.accepts, c.rejects
	}
	var total atomicCounts
	//lint:ignore allocfree work-stealing dispatch allocates one closure per Coulomb; the zero-alloc contract is the single-worker bypass above
	s.LastSched = sched.Run(s.Workers, len(groups), s.stealGrain, func(_, lo, hi int) {
		list := GetInteractionList()
		var c counts
		for gi := lo; gi < hi; gi++ {
			c.add(s.evalCoulombGroup(t, groups[gi], eps, pot, f, work, list))
		}
		PutInteractionList(list)
		total.add(c)
	})
	return total.load()
}

// evalCoulombGroup is evalVortexGroup for the Coulomb discipline.
func (s *Solver) evalCoulombGroup(t *Tree, g int32, eps float64, pot []float64, f []vec.Vec3, work []float64, list *InteractionList) (c counts) {
	nd := &t.Nodes[g]
	byList := s.Traversal == TraversalList
	if byList {
		list.Reset()
		gc, ge := t.GroupBounds(nd.First, nd.Count)
		t.AppendInteractionList(list, MACBarnesHut, s.Theta, int32(t.Root), gc, ge)
	}
	for i := nd.First; i < nd.First+nd.Count; i++ {
		orig := t.Order[i]
		x := t.Particle(i).Pos
		var res CoulombResult
		if byList {
			res = t.evalCoulombList(list, s.Theta, eps, x, i)
		} else {
			res = t.coulombAt(int32(t.Root), x, s.Theta, eps, i)
		}
		pot[orig] = res.Phi
		f[orig] = res.E
		if work != nil {
			work[orig] = float64(res.Interactions)
		}
		c.add(counts{res.Interactions, res.CellAccepts, res.Rejects})
	}
	return c
}

var _ field.Evaluator = (*Solver)(nil)
