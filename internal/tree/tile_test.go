package tree

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// sameVortexResult reports whether two results agree bit for bit,
// counters included.
func sameVortexResult(a, b VortexResult) bool {
	fa := []float64{a.U.X, a.U.Y, a.U.Z}
	fb := []float64{b.U.X, b.U.Y, b.U.Z}
	for i := range 3 {
		fa = append(fa, a.Grad[i][:]...)
		fb = append(fb, b.Grad[i][:]...)
	}
	for k := range fa {
		if math.Float64bits(fa[k]) != math.Float64bits(fb[k]) {
			return false
		}
	}
	return a.Interactions == b.Interactions && a.CellAccepts == b.CellAccepts && a.Rejects == b.Rejects
}

// sameVecs reports whether two vector slices agree bit for bit.
func sameVecs(a, b []vec.Vec3) bool {
	for i := range a {
		for _, c := range [3][2]float64{{a[i].X, b[i].X}, {a[i].Y, b[i].Y}, {a[i].Z, b[i].Z}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				return false
			}
		}
	}
	return true
}

// tileGroupSystem is a vortex blob plus a clump of twelve coincident
// particles: their Morton keys never separate, so they share one leaf
// at the level cap however small LeafCap is — a target group larger
// than groupCap.
func tileGroupSystem() *particle.System {
	sys := particle.RandomVortexBlob(300, 0.15, 3)
	p0 := sys.Particles[0].Pos
	for k := range 11 {
		a := vec.V3(1e-3*float64(k+1), -2e-3, 5e-4*float64(k))
		sys.Particles = append(sys.Particles, particle.Particle{Pos: p0, Alpha: a})
	}
	return sys
}

// TestTiledGroupsMatchRecursive evaluates target groups of 1, 3, 4, 5,
// 8 and more than groupCap targets (the coincident clump's max-depth
// leaf) by the tiled list evaluator and holds every target to the
// recursive walk bitwise, with the interaction, accept and reject
// counts equal — first per target, then through EvalGroups at 1 and 3
// workers.
func TestTiledGroupsMatchRecursive(t *testing.T) {
	sys := tileGroupSystem()
	tr := Build(sys, BuildConfig{LeafCap: 2, Discipline: Vortex})
	var groups []int32
	for _, size := range []int{1, 3, 4, 5, 8} {
		found := false
		for i := range tr.Nodes {
			if tr.Nodes[i].Count == size {
				groups = append(groups, int32(i))
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no cell holds %d particles", size)
		}
	}
	big := -1
	for i := range tr.Nodes {
		if nd := &tr.Nodes[i]; nd.Leaf && nd.Count > 8 {
			big = i
		}
	}
	if big < 0 {
		t.Fatal("the coincident clump is not one leaf of more than 8 particles")
	}
	groups = append(groups, int32(big))

	var kinds [3]int
	for _, theta := range []float64{0.3, 0.6} {
		s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
		vb := kernel.NewVortexBatch(kernel.Pairwise{Sm: s.Sm, Sigma: sys.Sigma})
		list := &InteractionList{}
		for _, g := range groups {
			nd := &tr.Nodes[g]
			list.Reset()
			gc, ge := tr.GroupBounds(nd.First, nd.Count)
			tr.AppendInteractionList(list, MACBarnesHut, theta, int32(tr.Root), gc, ge)
			for _, it := range list.Items {
				kinds[it.Kind]++
			}
			tr.evalVortexTiles(list, theta, nd.First, nd.Count, &vb, s.Dipole)
			for j := range nd.Count {
				i := nd.First + j
				got := list.tiles.result(j, list.Opens)
				want := tr.vortexAt(int32(tr.Root), tr.Particle(i).Pos, theta, i, &vb, s.Dipole)
				if !sameVortexResult(got, want) {
					t.Fatalf("θ=%g group of %d, target %d: tiled %+v, recursive %+v", theta, nd.Count, j, got, want)
				}
			}
		}

		n := sys.N()
		for _, workers := range []int{1, 3} {
			type run struct {
				vel, str             []vec.Vec3
				work                 []float64
				inter, acc, rejected int64
			}
			eval := func(mode TraversalMode) run {
				s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
				s.Traversal = mode
				s.Workers = workers
				r := run{vel: make([]vec.Vec3, n), str: make([]vec.Vec3, n), work: make([]float64, n)}
				r.inter, r.acc, r.rejected = s.EvalGroups(tr, groups, r.vel, r.str, r.work)
				return r
			}
			l, r := eval(TraversalList), eval(TraversalRecursive)
			if !sameVecs(l.vel, r.vel) || !sameVecs(l.str, r.str) {
				t.Fatalf("θ=%g workers=%d: tiled EvalGroups differs from the recursive walk", theta, workers)
			}
			for i := range l.work {
				if l.work[i] != r.work[i] {
					t.Fatalf("θ=%g workers=%d: target %d: %g interactions tiled, %g recursive", theta, workers, i, l.work[i], r.work[i])
				}
			}
			if l.inter != r.inter || l.acc != r.acc || l.rejected != r.rejected {
				t.Fatalf("θ=%g workers=%d: counters (%d, %d, %d) tiled, (%d, %d, %d) recursive",
					theta, workers, l.inter, l.acc, l.rejected, r.inter, r.acc, r.rejected)
			}
		}
	}
	if kinds[ItemFar] == 0 || kinds[ItemNear] == 0 || kinds[ItemAmbiguous] == 0 {
		t.Fatalf("the lists did not exercise every item kind: far %d, near %d, ambiguous %d",
			kinds[ItemFar], kinds[ItemNear], kinds[ItemAmbiguous])
	}
}
