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

// TestMortonPermutationBijection verifies that the radix sort produces
// a true permutation with ascending keys and that sortedPos is its
// exact inverse — sort→evaluate→unsort writes every result to exactly
// one original index.
func TestMortonPermutationBijection(t *testing.T) {
	sys := particle.ClusteredVortexSheet(777)
	tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
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

type noHook struct{}

func (noHook) AfterBuild(*Tree, int) error { return nil }

// TestLanesAtEveryBuild: a zero-value BuildConfig of either discipline
// gathers lanes through every build entry point, and the lanes are the
// bitwise image of the particles under the Morton permutation.
func TestLanesAtEveryBuild(t *testing.T) {
	systems := map[Discipline]*particle.System{
		Vortex:  particle.ClusteredVortexSheet(321),
		Coulomb: particle.HomogeneousCoulomb(321, 5),
	}
	for disc, sys := range systems {
		cfg := BuildConfig{Discipline: disc}
		checked, err := BuildChecked(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		builds := map[string]*Tree{
			"Build":              Build(sys, cfg),
			"BuildInto":          BuildInto(new(Arena), sys, cfg),
			"BuildArenaWithHook": BuildArenaWithHook(noHook{}, new(Arena), sys, cfg),
			"BuildChecked":       checked,
		}
		for name, tr := range builds {
			if tr.Lanes == nil || tr.Lanes.N() != sys.N() {
				t.Fatalf("discipline %v, %s: lanes %v for %d particles", disc, name, tr.Lanes, sys.N())
			}
			if err := tr.CheckLanes(); err != nil {
				t.Fatalf("discipline %v, %s: %v", disc, name, err)
			}
		}
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
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex})
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
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3)
	s.Workers = 3
	velB := make([]vec.Vec3, n)
	strB := make([]vec.Vec3, n)
	velS := make([]vec.Vec3, n)
	strS := make([]vec.Vec3, n)
	s.Eval(base, velB, strB)
	s.Eval(shuf, velS, strS)
	for i, p := range perm {
		if velS[i] != velB[p] || strS[i] != strB[p] {
			t.Fatalf("particle identity %d: result depends on input ordering", p)
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
	expectZeroAllocs(t, "Eval", func() { s.Eval(sys, vel, str) })

	cloud := particle.HomogeneousCoulomb(1500, 1)
	pot := make([]float64, cloud.N())
	f := make([]vec.Vec3, cloud.N())
	expectZeroAllocs(t, "Coulomb", func() { s.Coulomb(cloud, 0.01, pot, f) })
}

// expectZeroAllocs runs eval twice to reach steady state, then fails
// unless one of three measurements of it allocates nothing.
func expectZeroAllocs(t *testing.T, name string, eval func()) {
	t.Helper()
	eval()
	eval()
	best := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		got := testing.AllocsPerRun(3, eval)
		if got == 0 {
			return
		}
		best = math.Min(best, got)
	}
	t.Fatalf("steady-state SoA %s allocates %.1f times per run, want 0", name, best)
}

// TestArenaRebuildReuse verifies BuildInto over one arena returns a
// consistent tree across rebuilds (the guard ladder path) and that a
// rebuild fully overwrites prior state.
func TestArenaRebuildReuse(t *testing.T) {
	sys := particle.ClusteredVortexSheet(256)
	var a Arena
	t1 := BuildInto(&a, sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
	nodes1 := len(t1.Nodes)
	// Corrupt everything the arena owns, then rebuild.
	for i := range t1.Nodes {
		t1.Nodes[i].CircSum = vec.V3(math.NaN(), 0, 0)
	}
	t1.Lanes.X[0] = math.NaN()
	t2 := BuildInto(&a, sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
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
