package tree

// The tile walk (the default traversal) against the per-particle
// recursive traversal through the Solver, across θ ∈ {0, 0.3, 0.6}:
// every result bit and the interaction, accept and reject totals are
// equal (DESIGN.md §14), and results do not depend on the
// work-stealing schedule.

import (
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// vecBits is the bits of every component of vs.
func vecBits(vs ...[]vec.Vec3) []uint64 {
	var out []uint64
	for _, v := range vs {
		for _, x := range v {
			out = append(out, bits(x.X, x.Y, x.Z)...)
		}
	}
	return out
}

func TestListMatchesRecursiveVortex(t *testing.T) {
	systems := map[string]*particle.System{
		"blob":  particle.RandomVortexBlob(400, 0.15, 7),
		"sheet": particle.SphericalVortexSheet(particle.DefaultSheet(500)),
	}
	for name, sys := range systems {
		tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
		for _, theta := range []float64{0, 0.3, 0.6} {
			n := sys.N()
			run := func(mode TraversalMode) ([]uint64, counts) {
				s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
				s.Traversal = mode
				s.Workers = 4
				vel := make([]vec.Vec3, n)
				str := make([]vec.Vec3, n)
				var c counts
				c.inter, c.accepts, c.rejects = s.EvalTree(tr, vel, str, nil)
				return vecBits(vel, str), c
			}
			bl, cl := run(TraversalList)
			br, cr := run(TraversalRecursive)
			if !slices.Equal(bl, br) {
				t.Errorf("%s θ=%.1f: velocity or stretching differs", name, theta)
			}
			if cl != cr {
				t.Errorf("%s θ=%.1f: counters differ: list %+v recursive %+v", name, theta, cl, cr)
			}
		}
	}
}

func TestListMatchesRecursiveCoulomb(t *testing.T) {
	sys := particle.HomogeneousCoulomb(350, 12)
	tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Coulomb})
	const eps = 0.01
	for _, theta := range []float64{0, 0.3, 0.6} {
		n := sys.N()
		run := func(mode TraversalMode) ([]uint64, counts) {
			s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
			s.Traversal = mode
			s.Workers = 4
			pot := make([]float64, n)
			f := make([]vec.Vec3, n)
			var c counts
			c.inter, c.accepts, c.rejects = s.CoulombTree(tr, eps, pot, f, nil)
			return append(bits(pot...), vecBits(f)...), c
		}
		bl, cl := run(TraversalList)
		br, cr := run(TraversalRecursive)
		if !slices.Equal(bl, br) {
			t.Errorf("θ=%.1f: potential or field differs", theta)
		}
		if cl != cr {
			t.Errorf("θ=%.1f: counters differ: list %+v recursive %+v", theta, cl, cr)
		}
	}
}

func TestWorkStealingScheduleInvariance(t *testing.T) {
	// The assignment of tiles to workers is load-driven and
	// nondeterministic; the results must be bitwise identical anyway
	// (and identical across worker counts), because every target's sum
	// is computed independently in a fixed order. The N = 603 rows end
	// in a tile of three targets, which grains 1 and 3 let a worker
	// steal; one of them is Coulomb's.
	for _, row := range []struct {
		n       int
		coulomb bool
		cfgs    [][2]int // workers, grain
	}{
		{600, false, [][2]int{{2, 0}, {4, 1}, {8, 3}, {4, 0}}},
		{603, false, [][2]int{{2, 1}, {4, 3}}},
		{603, true, [][2]int{{2, 1}, {4, 3}}},
	} {
		sys := particle.SphericalVortexSheet(particle.DefaultSheet(row.n))
		if row.coulomb {
			sys = particle.HomogeneousCoulomb(row.n, 5)
		}
		n := sys.N()
		if n != row.n {
			t.Fatalf("the system of %d particles has %d", row.n, n)
		}
		run := func(workers, grain int) []uint64 {
			s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.45)
			s.Workers = workers
			s.stealGrain = grain
			a, b := make([]vec.Vec3, n), make([]vec.Vec3, n)
			if row.coulomb {
				pot := make([]float64, n)
				s.Coulomb(sys, 0.01, pot, a)
				return append(bits(pot...), vecBits(a)...)
			}
			s.Eval(sys, a, b)
			return vecBits(a, b)
		}
		ref := run(1, 0)
		for _, cfg := range row.cfgs {
			for rep := 0; rep < 3; rep++ {
				if got := run(cfg[0], cfg[1]); !slices.Equal(got, ref) {
					t.Fatalf("N=%d coulomb=%v workers=%d grain=%d rep=%d: results differ from the single-worker run", n, row.coulomb, cfg[0], cfg[1], rep)
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
