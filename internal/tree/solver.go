package tree

import (
	"fmt"
	"runtime"
	"sync"
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
// and evaluates the field at every target particle. By default targets
// are processed leaf group by leaf group through the two-phase
// interaction-list evaluator (see interaction.go) with work-stealing
// scheduling; Traversal selects the classic per-particle recursive
// walk instead.
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
	// MAC selects the acceptance criterion (default: classical
	// Barnes-Hut, the paper's choice).
	MAC MACKind
	// Traversal selects the evaluator: TraversalList (default) builds
	// one interaction list per leaf group and schedules groups with
	// work stealing; TraversalRecursive is the per-particle walk with
	// static block splits.
	Traversal TraversalMode
	// GroupCap bounds the particles per target group of the list
	// evaluator (≤0: max(LeafCap, 8)). Groups larger than a leaf
	// amortize one list-build walk over several leaf cells.
	GroupCap int
	// Hook, when non-nil, observes every built tree before use (guard
	// layer: moment-flip injection + ABFT verification with rebuild on
	// detection). Nil costs nothing.
	Hook BuildHook
	// Layout is BuildConfig.Layout for the solver's trees: LayoutSoA
	// (the NewSolver default) gathers Morton-sorted lanes at build,
	// LayoutAoS gathers each leaf as the near leg meets it. Same
	// kernel, bitwise-equal results (DESIGN.md §14).
	Layout particle.Layout

	// stealGrain is the work-stealing chunk size in leaf groups (≤0:
	// automatic, ~4 chunks per worker); only the schedule-invariance
	// test sets it.
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
	// LastSched is the scheduler report of the most recent Eval (zero
	// in recursive mode): steal count and per-worker busy seconds.
	LastSched sched.Stats
}

// NewSolver returns a tree evaluator with the given kernel, stretching
// scheme and MAC parameter θ, with dipole corrections enabled, a
// bucket size of 8 and the SoA layout.
func NewSolver(sm kernel.Smoothing, scheme kernel.Scheme, theta float64) *Solver {
	return &Solver{Sm: sm, Scheme: scheme, Theta: theta, LeafCap: 8, Dipole: true,
		Layout: particle.LayoutSoA}
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
// stretching terms for all particles.
//
//lint:hotpath steady-state vortex evaluation: 0 allocs/op contract (BENCH_PR6, ci.sh layout lane)
func (s *Solver) Eval(sys *particle.System, vel, stretch []vec.Vec3) {
	n := sys.N()
	if len(vel) != n || len(stretch) != n {
		panic("tree: Eval output slices must have length N")
	}
	s.evals.Add(1)
	t := BuildArenaWithHook(s.Hook, &s.arenaV, sys,
		BuildConfig{LeafCap: s.LeafCap, Discipline: Vortex, Layout: s.Layout})
	s.LastTree = t
	s.vb = kernel.NewVortexBatch(kernel.Pairwise{Sm: s.Sm, Sigma: sys.Sigma})
	vb := &s.vb
	if s.Traversal == TraversalRecursive {
		s.LastSched = sched.Stats{}
		var inter atomic.Int64
		//lint:ignore allocfree recursive multi-worker dispatch allocates one closure per Eval; the zero-alloc contract is the single-worker list bypass
		s.parallelRange(n, func(lo, hi int) {
			var local int64
			for q := lo; q < hi; q++ {
				p := &sys.Particles[q]
				res := t.VortexAtNodeMAC(s.MAC, t.Root, p.Pos, s.Theta, q, vb, s.Dipole)
				vel[q] = res.U
				stretch[q] = s.Scheme.Stretch(res.Grad, p.Alpha)
				local += res.Interactions
			}
			inter.Add(local)
		})
		s.interactions.Add(inter.Load())
		return
	}
	s.groupsBuf = t.AppendGroups(s.groupsBuf[:0], s.groupCap())
	groups := s.groupsBuf
	if s.workerCount(len(groups)) == 1 {
		// Single-worker bypass: no scheduler, no goroutines, no pool —
		// with arena-backed build and the solver-held scratch list, a
		// steady-state Eval performs zero heap allocations.
		t0 := telemetry.Wall()
		var local int64
		for _, g := range groups {
			local += s.evalVortexGroup(t, sys, vel, stretch, vb, g, &s.scratchList)
		}
		s.busyBuf[0] = telemetry.Wall() - t0
		s.LastSched = sched.Stats{Workers: 1, Busy: s.busyBuf[:]}
		s.interactions.Add(local)
		return
	}
	var inter atomic.Int64
	//lint:ignore allocfree work-stealing dispatch allocates one closure per Eval; the zero-alloc contract is the single-worker bypass above
	s.LastSched = sched.Run(s.Workers, len(groups), s.stealGrain, func(_, lo, hi int) {
		list := GetInteractionList()
		var local int64
		for gi := lo; gi < hi; gi++ {
			local += s.evalVortexGroup(t, sys, vel, stretch, vb, groups[gi], list)
		}
		PutInteractionList(list)
		inter.Add(local)
	})
	s.interactions.Add(inter.Load())
}

// evalVortexGroup builds the interaction list of one target group into
// list (reset first) and evaluates every particle of the group against
// it, writing results by original index. Returns the interaction
// count.
func (s *Solver) evalVortexGroup(t *Tree, sys *particle.System, vel, stretch []vec.Vec3, vb *kernel.VortexBatch, g int32, list *InteractionList) int64 {
	nd := &t.Nodes[g]
	list.Reset()
	gc, ge := t.GroupBounds(nd.First, nd.Count)
	t.AppendInteractionList(list, s.MAC, s.Theta, int32(t.Root), gc, ge)
	var local int64
	for i := nd.First; i < nd.First+nd.Count; i++ {
		orig := t.Order[i]
		p := &sys.Particles[orig]
		res := t.EvalVortexList(list, s.MAC, s.Theta, p.Pos, orig, vb, s.Dipole)
		vel[orig] = res.U
		stretch[orig] = s.Scheme.Stretch(res.Grad, p.Alpha)
		local += res.Interactions
	}
	return local
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

// groupCap is the effective target-group size of the list evaluator.
func (s *Solver) groupCap() int {
	if s.GroupCap > 0 {
		return s.GroupCap
	}
	if s.LeafCap > 8 {
		return s.LeafCap
	}
	return 8
}

// Coulomb evaluates the softened Coulomb potential and field for all
// particles with the tree.
//
//lint:hotpath steady-state Coulomb evaluation: shares the zero-alloc single-worker bypass with Eval
func (s *Solver) Coulomb(sys *particle.System, eps float64, pot []float64, f []vec.Vec3) {
	n := sys.N()
	if len(pot) != n || len(f) != n {
		panic("tree: Coulomb output slices must have length N")
	}
	s.evals.Add(1)
	t := BuildArenaWithHook(s.Hook, &s.arenaC, sys,
		BuildConfig{LeafCap: s.LeafCap, Discipline: Coulomb, Layout: s.Layout})
	s.LastTree = t
	if s.Traversal == TraversalRecursive {
		s.LastSched = sched.Stats{}
		var inter atomic.Int64
		//lint:ignore allocfree recursive multi-worker dispatch allocates one closure per Coulomb; the zero-alloc contract is the single-worker list bypass
		s.parallelRange(n, func(lo, hi int) {
			var local int64
			for q := lo; q < hi; q++ {
				res := t.CoulombAtNode(t.Root, sys.Particles[q].Pos, s.Theta, eps, q)
				pot[q] = res.Phi
				f[q] = res.E
				local += res.Interactions
			}
			inter.Add(local)
		})
		s.interactions.Add(inter.Load())
		return
	}
	s.groupsBuf = t.AppendGroups(s.groupsBuf[:0], s.groupCap())
	groups := s.groupsBuf
	if s.workerCount(len(groups)) == 1 {
		t0 := telemetry.Wall()
		var local int64
		for _, g := range groups {
			local += s.evalCoulombGroup(t, sys, eps, pot, f, g, &s.scratchList)
		}
		s.busyBuf[0] = telemetry.Wall() - t0
		s.LastSched = sched.Stats{Workers: 1, Busy: s.busyBuf[:]}
		s.interactions.Add(local)
		return
	}
	var inter atomic.Int64
	//lint:ignore allocfree work-stealing dispatch allocates one closure per Coulomb; the zero-alloc contract is the single-worker bypass above
	s.LastSched = sched.Run(s.Workers, len(groups), s.stealGrain, func(_, lo, hi int) {
		list := GetInteractionList()
		var local int64
		for gi := lo; gi < hi; gi++ {
			local += s.evalCoulombGroup(t, sys, eps, pot, f, groups[gi], list)
		}
		PutInteractionList(list)
		inter.Add(local)
	})
	s.interactions.Add(inter.Load())
}

// evalCoulombGroup is evalVortexGroup for the Coulomb discipline.
func (s *Solver) evalCoulombGroup(t *Tree, sys *particle.System, eps float64, pot []float64, f []vec.Vec3, g int32, list *InteractionList) int64 {
	nd := &t.Nodes[g]
	list.Reset()
	gc, ge := t.GroupBounds(nd.First, nd.Count)
	t.AppendInteractionList(list, MACBarnesHut, s.Theta, int32(t.Root), gc, ge)
	var local int64
	for i := nd.First; i < nd.First+nd.Count; i++ {
		orig := t.Order[i]
		res := t.EvalCoulombList(list, s.Theta, eps, sys.Particles[orig].Pos, orig)
		pot[orig] = res.Phi
		f[orig] = res.E
		local += res.Interactions
	}
	return local
}

func (s *Solver) parallelRange(n int, fn func(lo, hi int)) {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		//lint:ignore allocfree one goroutine closure per worker per call; only the w<=1 path is on the zero-alloc contract
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

var _ field.Evaluator = (*Solver)(nil)
