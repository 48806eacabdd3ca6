package tree

// Property tests for the two-phase interaction-list evaluator: across
// θ ∈ {0, 0.3, 0.6} it must agree with the
// per-particle recursive traversal to ≤1 ulp per component (by
// construction the agreement is bitwise: conservative group
// classification plus exact fallback reproduces the recursive
// summation order term for term), and its results must not depend on
// the work-stealing schedule.

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// ulps returns the distance between a and b in units in the last
// place (0 when bitwise equal).
func ulps(a, b float64) uint64 {
	ua, ub := orderedBits(a), orderedBits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// orderedBits maps float64 to uint64 monotonically (lexicographic
// order of the mapped values matches numeric order of the floats).
func orderedBits(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func maxUlpsVec(a, b []vec.Vec3) uint64 {
	var m uint64
	for i := range a {
		for _, d := range [3]uint64{
			ulps(a[i].X, b[i].X),
			ulps(a[i].Y, b[i].Y),
			ulps(a[i].Z, b[i].Z),
		} {
			if d > m {
				m = d
			}
		}
	}
	return m
}

func TestListMatchesRecursiveVortex(t *testing.T) {
	systems := map[string]*particle.System{
		"blob":  particle.RandomVortexBlob(400, 0.15, 7),
		"sheet": particle.SphericalVortexSheet(particle.DefaultSheet(500)),
	}
	for name, sys := range systems {
		for _, theta := range []float64{0, 0.3, 0.6} {
			n := sys.N()
			mk := func(mode TraversalMode) (*Solver, []vec.Vec3, []vec.Vec3) {
				s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
				s.Traversal = mode
				s.Workers = 4
				vel := make([]vec.Vec3, n)
				str := make([]vec.Vec3, n)
				s.Eval(sys, vel, str)
				return s, vel, str
			}
			sL, velL, strL := mk(TraversalList)
			sR, velR, strR := mk(TraversalRecursive)
			if d := maxUlpsVec(velL, velR); d > 1 {
				t.Errorf("%s θ=%.1f: velocity differs by %d ulp", name, theta, d)
			}
			if d := maxUlpsVec(strL, strR); d > 1 {
				t.Errorf("%s θ=%.1f: stretching differs by %d ulp", name, theta, d)
			}
			if li, ri := sL.Stats().Interactions, sR.Stats().Interactions; li != ri {
				t.Errorf("%s θ=%.1f: interaction counts differ: list=%d recursive=%d", name, theta, li, ri)
			}
		}
	}
}

func TestListMatchesRecursiveCoulomb(t *testing.T) {
	sys := particle.HomogeneousCoulomb(350, 12)
	const eps = 0.01
	for _, theta := range []float64{0, 0.3, 0.6} {
		n := sys.N()
		mk := func(mode TraversalMode) ([]float64, []vec.Vec3) {
			s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
			s.Traversal = mode
			s.Workers = 4
			pot := make([]float64, n)
			f := make([]vec.Vec3, n)
			s.Coulomb(sys, eps, pot, f)
			return pot, f
		}
		potL, fL := mk(TraversalList)
		potR, fR := mk(TraversalRecursive)
		for i := range potL {
			if d := ulps(potL[i], potR[i]); d > 1 {
				t.Fatalf("θ=%.1f: potential[%d] differs by %d ulp", theta, i, d)
			}
		}
		if d := maxUlpsVec(fL, fR); d > 1 {
			t.Errorf("θ=%.1f: field differs by %d ulp", theta, d)
		}
	}
}

func TestWorkStealingScheduleInvariance(t *testing.T) {
	// The assignment of tiles to workers is load-driven and
	// nondeterministic; the results must be bitwise identical anyway
	// (and identical across worker counts), because every target's sum
	// is computed independently in a fixed order. The N = 603 row ends
	// in a tile of three targets, which grains 1 and 3 let a worker
	// steal.
	for _, row := range []struct {
		n    int
		cfgs [][2]int // workers, grain
	}{
		{600, [][2]int{{2, 0}, {4, 1}, {8, 3}, {4, 0}}},
		{603, [][2]int{{2, 1}, {4, 3}}},
	} {
		sys := particle.SphericalVortexSheet(particle.DefaultSheet(row.n))
		n := sys.N()
		if n != row.n {
			t.Fatalf("the sheet of %d particles has %d", row.n, n)
		}
		run := func(workers, grain int) ([]vec.Vec3, []vec.Vec3) {
			s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.45)
			s.Workers = workers
			s.stealGrain = grain
			vel := make([]vec.Vec3, n)
			str := make([]vec.Vec3, n)
			s.Eval(sys, vel, str)
			return vel, str
		}
		velRef, strRef := run(1, 0)
		for _, cfg := range row.cfgs {
			for rep := 0; rep < 3; rep++ {
				vel, str := run(cfg[0], cfg[1])
				for i := range vel {
					if vel[i] != velRef[i] || str[i] != strRef[i] {
						t.Fatalf("N=%d workers=%d grain=%d rep=%d: particle %d differs from single-worker run", n, cfg[0], cfg[1], rep, i)
					}
				}
			}
		}
	}
}

func TestClassifyGroupConservative(t *testing.T) {
	// Random cells vs random group boxes: a group Accept must imply a
	// per-particle accept for every corner and the center of the group
	// box; a group Open must imply a per-particle reject for the same
	// probe points (the probes are inside the box, so any violation is
	// a soundness bug; non-probe points are covered by the interval
	// bounds being monotone).
	sys := particle.RandomVortexBlob(512, 0.2, 3)
	tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
	groups := tr.Groups(8) // at LeafCap 8: the non-empty leaves
	for _, theta := range []float64{0.3, 0.6, 1.0} {
		theta2 := theta * theta
		for _, g := range groups {
			gn := &tr.Nodes[g]
			gc, ge := tr.GroupBounds(gn.First, gn.Count)
			probes := []vec.Vec3{gc}
			for dx := -1.0; dx <= 1; dx += 2 {
				for dy := -1.0; dy <= 1; dy += 2 {
					for dz := -1.0; dz <= 1; dz += 2 {
						probes = append(probes, vec.V3(gc.X+dx*ge.X, gc.Y+dy*ge.Y, gc.Z+dz*ge.Z))
					}
				}
			}
			for ni := range tr.Nodes {
				nd := &tr.Nodes[ni]
				if nd.Leaf || nd.Count == 0 {
					continue
				}
				cls := classifyGroup(theta2, nd, gc, ge)
				if cls == groupAmbiguous {
					continue
				}
				for _, x := range probes {
					acc := MACSq(theta2, nd.Size*nd.Size, x.Sub(nd.Centroid).Norm2())
					if cls == groupAccept && !acc {
						t.Fatalf("θ=%.1f: group accept but per-particle reject", theta)
					}
					if cls == groupOpen && acc {
						t.Fatalf("θ=%.1f: group open but per-particle accept", theta)
					}
				}
			}
		}
	}
}
