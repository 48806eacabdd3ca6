package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

func layoutSolver(sm kernel.Smoothing, theta float64, trav TraversalMode, layout particle.Layout, workers int) *Solver {
	s := NewSolver(sm, kernel.Transpose, theta)
	s.Traversal = trav
	s.Layout = layout
	s.Workers = workers
	return s
}

var layoutKernels = []kernel.Smoothing{kernel.Algebraic2(), kernel.Algebraic6()}

// TestLayoutSweepEquivalence is the layout matrix: θ ∈ {0, 0.3, 0.6},
// every smoothing kernel, both traversals, clustered and uniform
// systems. Both layouts feed one kernel through one walker — LayoutAoS
// only changes where the near leg finds its sources — so every output
// component must be == across layouts; a re-forked arithmetic fails
// here.
func TestLayoutSweepEquivalence(t *testing.T) {
	systems := map[string]*particle.System{
		"clustered": particle.ClusteredVortexSheet(240),
		"uniform":   particle.RandomVortexBlob(240, 0.08, 7),
	}
	for sysName, sys := range systems {
		for _, sm := range layoutKernels {
			kn := sm.Name()
			for _, theta := range []float64{0, 0.3, 0.6} {
				for _, trav := range []TraversalMode{TraversalList, TraversalRecursive} {
					n := sys.N()
					velA := make([]vec.Vec3, n)
					strA := make([]vec.Vec3, n)
					velS := make([]vec.Vec3, n)
					strS := make([]vec.Vec3, n)
					layoutSolver(sm, theta, trav, particle.LayoutAoS, 2).Eval(sys, velA, strA)
					layoutSolver(sm, theta, trav, particle.LayoutSoA, 2).Eval(sys, velS, strS)
					for i := 0; i < n; i++ {
						if !sameBits(velA[i], velS[i]) || !sameBits(strA[i], strS[i]) {
							t.Fatalf("%s/%s θ=%g %v: particle %d differs across layouts (vel aos %v soa %v, stretch aos %v soa %v)",
								sysName, kn, theta, trav, i, velA[i], velS[i], strA[i], strS[i])
						}
					}
				}
			}
		}
	}
}

// sameBits is == on every component, with NaN equal to NaN (should a
// kernel overflow, both layouts must overflow alike).
func sameBits(a, b vec.Vec3) bool {
	return ulps(a.X, b.X) == 0 && ulps(a.Y, b.Y) == 0 && ulps(a.Z, b.Z) == 0
}

// TestLayoutBitwiseDefaultConfig pins the stronger half of the
// contract on the configuration the façade ships: with the evaluation
// order preserved everywhere, SoA results are bitwise equal to AoS —
// any regression to "merely close" means an accidental reassociation
// crept into the batched path.
func TestLayoutBitwiseDefaultConfig(t *testing.T) {
	sys := particle.ClusteredVortexSheet(500)
	n := sys.N()
	sm := kernel.Algebraic6()
	velA := make([]vec.Vec3, n)
	strA := make([]vec.Vec3, n)
	velS := make([]vec.Vec3, n)
	strS := make([]vec.Vec3, n)
	layoutSolver(sm, 0.3, TraversalList, particle.LayoutAoS, 4).Eval(sys, velA, strA)
	layoutSolver(sm, 0.3, TraversalList, particle.LayoutSoA, 4).Eval(sys, velS, strS)
	for i := 0; i < n; i++ {
		if velA[i] != velS[i] || strA[i] != strS[i] {
			t.Fatalf("particle %d: SoA not bitwise equal to AoS (vel %v vs %v, stretch %v vs %v)",
				i, velA[i], velS[i], strA[i], strS[i])
		}
	}
}

// TestLayoutCoulombEquivalence covers the Coulomb discipline of the
// matrix: potentials and fields == across layouts.
func TestLayoutCoulombEquivalence(t *testing.T) {
	sys := particle.HomogeneousCoulomb(300, 11)
	n := sys.N()
	for _, theta := range []float64{0, 0.3, 0.6} {
		for _, trav := range []TraversalMode{TraversalList, TraversalRecursive} {
			potA := make([]float64, n)
			fA := make([]vec.Vec3, n)
			potS := make([]float64, n)
			fS := make([]vec.Vec3, n)
			sA := layoutSolver(kernel.Algebraic6(), theta, trav, particle.LayoutAoS, 2)
			sA.Coulomb(sys, 1e-3, potA, fA)
			sS := layoutSolver(kernel.Algebraic6(), theta, trav, particle.LayoutSoA, 2)
			sS.Coulomb(sys, 1e-3, potS, fS)
			for i := 0; i < n; i++ {
				if potA[i] != potS[i] || fA[i] != fS[i] {
					t.Fatalf("θ=%g %v: particle %d differs across layouts (pot %v vs %v, field %v vs %v)",
						theta, trav, i, potA[i], potS[i], fA[i], fS[i])
				}
			}
		}
	}
}

// TestMortonPermutationBijection verifies that the radix sort produces
// a true permutation with ascending keys and that sortedPos is its
// exact inverse — sort→evaluate→unsort writes every result to exactly
// one original index.
func TestMortonPermutationBijection(t *testing.T) {
	sys := particle.ClusteredVortexSheet(777)
	tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex, Layout: particle.LayoutSoA})
	n := sys.N()
	seen := make([]bool, n)
	for _, idx := range tr.Order {
		if idx < 0 || idx >= n || seen[idx] {
			t.Fatalf("Order is not a bijection: index %d", idx)
		}
		seen[idx] = true
	}
	for i, idx := range tr.Order {
		if int(tr.sortedPos[idx]) != i {
			t.Fatalf("sortedPos[%d]=%d, want %d", idx, tr.sortedPos[idx], i)
		}
	}
	if err := tr.CheckOrdering(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckLanes(); err != nil {
		t.Fatal(err)
	}
}

// TestMortonSortStableUnderDuplicateKeys builds a system of coincident
// particles (identical Morton keys) and verifies ties fall in original
// index order — the tie-break contract of the comparator the radix
// sort replaced.
func TestMortonSortStableUnderDuplicateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sites [10]vec.Vec3
	for i := range sites {
		sites[i] = vec.V3(rng.Float64(), rng.Float64(), rng.Float64())
	}
	sys := &particle.System{Sigma: 0.1}
	for i := 0; i < 100; i++ {
		sys.Particles = append(sys.Particles, particle.Particle{
			Pos:   sites[i%len(sites)],
			Alpha: vec.V3(1, 0, 0),
		})
	}
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex, Layout: particle.LayoutSoA})
	for i := 1; i < len(tr.Keys); i++ {
		if tr.Keys[i-1] == tr.Keys[i] && tr.Order[i-1] >= tr.Order[i] {
			t.Fatalf("duplicate key at %d: order %d before %d (stability violated)",
				i, tr.Order[i-1], tr.Order[i])
		}
	}
	if err := tr.CheckLanes(); err != nil {
		t.Fatal(err)
	}
}

// TestRadixSortMatchesReferenceComparator drives radixSortKeyOrder
// directly against the sort.Slice comparator it replaced, over random
// key sets with heavy duplication.
func TestRadixSortMatchesReferenceComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		keys := make([]uint64, n)
		for i := range keys {
			switch rng.Intn(3) {
			case 0:
				keys[i] = uint64(rng.Intn(4)) // heavy duplication
			case 1:
				keys[i] = rng.Uint64() >> 1 // full 63-bit range
			default:
				keys[i] = rng.Uint64() >> 40 // low bits only
			}
		}
		keyOf := append([]uint64(nil), keys...)
		refOrder := make([]int, n)
		for i := range refOrder {
			refOrder[i] = i
		}
		sort.Slice(refOrder, func(a, b int) bool {
			ka, kb := keyOf[refOrder[a]], keyOf[refOrder[b]]
			if ka != kb {
				return ka < kb
			}
			return refOrder[a] < refOrder[b]
		})
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		radixSortKeyOrder(keys, order, make([]uint64, n), make([]int, n))
		for i := 0; i < n; i++ {
			if order[i] != refOrder[i] || keys[i] != keyOf[refOrder[i]] {
				t.Fatalf("trial %d: radix order diverges from reference at %d", trial, i)
			}
		}
	}
}

// TestLayoutInputOrderInvariance shuffles the input particle slice and
// verifies the SoA evaluator returns bitwise-identical results per
// particle identity — the determinism regression for the new layout.
// (Positions are distinct, so the Morton order, and with it every
// summation order, is independent of the input permutation.)
func TestLayoutInputOrderInvariance(t *testing.T) {
	base := particle.ClusteredVortexSheet(400)
	n := base.N()
	perm := rand.New(rand.NewSource(21)).Perm(n)
	shuf := &particle.System{Sigma: base.Sigma, Particles: make([]particle.Particle, n)}
	for i, p := range perm {
		shuf.Particles[i] = base.Particles[p]
	}
	sm := kernel.Algebraic6()
	velB := make([]vec.Vec3, n)
	strB := make([]vec.Vec3, n)
	velS := make([]vec.Vec3, n)
	strS := make([]vec.Vec3, n)
	layoutSolver(sm, 0.3, TraversalList, particle.LayoutSoA, 3).Eval(base, velB, strB)
	layoutSolver(sm, 0.3, TraversalList, particle.LayoutSoA, 3).Eval(shuf, velS, strS)
	for i, p := range perm {
		if velS[i] != velB[p] || strS[i] != strB[p] {
			t.Fatalf("particle identity %d: result depends on input ordering", p)
		}
	}
}

// TestSortGatherScatterRoundTrip proves gather∘scatter is the identity
// on the gathered components: sort→gather→scatter reproduces the
// original system bitwise.
func TestSortGatherScatterRoundTrip(t *testing.T) {
	sys := particle.ClusteredVortexSheet(333)
	tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex, Layout: particle.LayoutSoA})
	dst := sys.Clone()
	for i := range dst.Particles {
		dst.Particles[i].Pos = vec.V3(math.NaN(), math.NaN(), math.NaN())
		dst.Particles[i].Alpha = vec.V3(math.NaN(), math.NaN(), math.NaN())
	}
	tr.Lanes.ScatterVortex(dst, tr.Order)
	for i := range sys.Particles {
		if dst.Particles[i].Pos != sys.Particles[i].Pos ||
			dst.Particles[i].Alpha != sys.Particles[i].Alpha {
			t.Fatalf("round trip altered particle %d", i)
		}
	}
}

// TestSoAEvalZeroAllocSteadyState pins the arena contract: after the
// first evaluation has grown every buffer, a single-worker SoA Eval
// performs zero heap allocations.
// raceEnabled is set by the tagged init in race_enabled_test.go when
// the test binary is built with the race detector.
var raceEnabled bool

func TestSoAEvalZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc contract is asserted in the non-race lane")
	}
	sys := particle.ClusteredVortexSheet(1500)
	n := sys.N()
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3)
	s.Workers = 1
	vel := make([]vec.Vec3, n)
	str := make([]vec.Vec3, n)
	s.Eval(sys, vel, str)
	s.Eval(sys, vel, str)
	var best float64 = math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		got := testing.AllocsPerRun(3, func() { s.Eval(sys, vel, str) })
		if got == 0 {
			return
		}
		best = math.Min(best, got)
	}
	t.Fatalf("steady-state SoA Eval allocates %.1f times per run, want 0", best)
}

// TestArenaRebuildReuse verifies BuildInto over one arena returns a
// consistent tree across rebuilds (the guard ladder path) and that a
// rebuild fully overwrites prior state.
func TestArenaRebuildReuse(t *testing.T) {
	sys := particle.ClusteredVortexSheet(256)
	var a Arena
	t1 := BuildInto(&a, sys, BuildConfig{LeafCap: 8, Discipline: Vortex, Layout: particle.LayoutSoA})
	nodes1 := len(t1.Nodes)
	// Corrupt everything the arena owns, then rebuild.
	for i := range t1.Nodes {
		t1.Nodes[i].CircSum = vec.V3(math.NaN(), 0, 0)
	}
	t1.Lanes.X[0] = math.NaN()
	t2 := BuildInto(&a, sys, BuildConfig{LeafCap: 8, Discipline: Vortex, Layout: particle.LayoutSoA})
	if t2 != t1 {
		t.Fatal("BuildInto must reuse the arena's tree")
	}
	if len(t2.Nodes) != nodes1 {
		t.Fatalf("rebuild changed node count: %d vs %d", len(t2.Nodes), nodes1)
	}
	if err := t2.CheckMoments(); err != nil {
		t.Fatalf("rebuild left corrupted moments: %v", err)
	}
	if err := t2.CheckLanes(); err != nil {
		t.Fatalf("rebuild left corrupted lanes: %v", err)
	}
}
