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
// than the Coulomb group cap.
func tileGroupSystem() *particle.System {
	sys := particle.RandomVortexBlob(300, 0.15, 3)
	p0 := sys.Particles[0].Pos
	for k := range 11 {
		a := vec.V3(1e-3*float64(k+1), -2e-3, 5e-4*float64(k))
		sys.Particles = append(sys.Particles, particle.Particle{Pos: p0, Alpha: a})
	}
	return sys
}

// groupTargets is the target sequence EvalGroups packs into tiles: the
// lanes of each group in group order.
func groupTargets(tr *Tree, groups []int32) []int {
	var at []int
	for _, g := range groups {
		nd := &tr.Nodes[g]
		for i := nd.First; i < nd.First+nd.Count; i++ {
			at = append(at, i)
		}
	}
	return at
}

// splitCells counts the cells of one tile's walk that some of its
// lanes (the targets at lanes at) accept and others open.
func splitCells(tr *Tree, at []int, theta float64) int {
	type item struct {
		node int32
		mask uint8
	}
	stack := []item{{int32(tr.Root), 1<<len(at) - 1}}
	split := 0
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &tr.Nodes[it.node]
		if nd.Count == 0 || nd.Leaf {
			continue
		}
		var accept, opened uint8
		for l, i := range at {
			if it.mask>>l&1 == 0 {
				continue
			}
			if MACSq(theta*theta, nd.Size*nd.Size, tr.Particle(i).Pos.Sub(nd.Centroid).Norm2()) {
				accept |= 1 << l
			} else {
				opened |= 1 << l
			}
		}
		if accept != 0 && opened != 0 {
			split++
		}
		if opened != 0 {
			for _, ci := range nd.Children {
				if ci >= 0 {
					stack = append(stack, item{ci, opened})
				}
			}
		}
	}
	return split
}

// checkTileWalk holds the tile walk over the given target groups to the
// per-particle walk, bitwise with every counter equal: tile by tile,
// packed as EvalGroups packs them, and through EvalGroups at each
// worker count. It returns the number of split cells the tiles met.
func checkTileWalk(t *testing.T, tr *Tree, groups []int32, theta float64, workers ...int) (split int) {
	t.Helper()
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
	vb := kernel.NewVortexBatch(kernel.Pairwise{Sm: s.Sm, Sigma: tr.sys.Sigma})
	at := groupTargets(tr, groups)
	want := make([]VortexResult, len(at))
	var inter, accepts, rejects int64
	for k, i := range at {
		want[k] = tr.vortexAt(int32(tr.Root), tr.Particle(i).Pos, theta, i, &vb, s.Dipole)
		inter += want[k].Interactions
		accepts += want[k].CellAccepts
		rejects += want[k].Rejects
	}
	var w tileWalk
	for k := 0; k < len(at); k += kernel.TileWidth {
		n := min(kernel.TileWidth, len(at)-k)
		copy(w.at[:], at[k:k+n])
		w.walk(tr, &vb, theta, n, s.Dipole)
		for l := range n {
			if got := w.result(l); !sameVortexResult(got, want[k+l]) {
				t.Fatalf("θ=%g target %d (lane %d of %d): tiled %+v, recursive %+v", theta, k+l, l, n, got, want[k+l])
			}
		}
		split += splitCells(tr, at[k:k+n], theta)
	}

	n := tr.sys.N()
	for _, workers := range workers {
		s.Workers = workers
		vel, str, work := make([]vec.Vec3, n), make([]vec.Vec3, n), make([]float64, n)
		gi, ga, gr := s.EvalGroups(tr, groups, vel, str, work)
		for k, i := range at {
			orig := tr.Order[i]
			wantStr := s.Scheme.Stretch(want[k].Grad, tr.Particle(i).Alpha)
			if !sameVecs([]vec.Vec3{vel[orig], str[orig]}, []vec.Vec3{want[k].U, wantStr}) {
				t.Fatalf("θ=%g workers=%d: EvalGroups differs from the recursive walk at target %d", theta, workers, k)
			}
			if work[orig] != float64(want[k].Interactions) {
				t.Fatalf("θ=%g workers=%d: target %d: %g interactions tiled, %d recursive", theta, workers, k, work[orig], want[k].Interactions)
			}
		}
		if gi != inter || ga != accepts || gr != rejects {
			t.Fatalf("θ=%g workers=%d: counters (%d, %d, %d) tiled, (%d, %d, %d) recursive",
				theta, workers, gi, ga, gr, inter, accepts, rejects)
		}
	}
	return split
}

// TestTiledGroupsMatchRecursive holds the tile walk to the recursive
// walk bitwise, with the interaction, accept and reject counts equal,
// per target and through EvalGroups at 1 and 3 workers, at θ = 0, 0.3
// and 0.6, over two cuts of the targets: consecutive groups of 1, 3 and
// 5 targets and the coincident clump's leaf of more than the group cap
// targets, so tiles span groups, and the non-empty leaves, the groups
// package hot passes. At θ > 0 some tile must meet a cell that one of
// its lanes accepts and another opens.
func TestTiledGroupsMatchRecursive(t *testing.T) {
	sys := tileGroupSystem()
	tr := Build(sys, BuildConfig{LeafCap: 2, Discipline: Vortex})
	disjoint := func(i int, picked []int32) bool {
		a := &tr.Nodes[i]
		for _, g := range picked {
			b := &tr.Nodes[g]
			if a.First < b.First+b.Count && b.First < a.First+a.Count {
				return false
			}
		}
		return true
	}
	var spans []int32
	for _, size := range []int{1, 3, 5} {
		found := false
		for i := range tr.Nodes {
			if tr.Nodes[i].Count == size && disjoint(i, spans) {
				spans = append(spans, int32(i))
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no cell outside the others holds %d particles", size)
		}
	}
	big := -1
	for i := range tr.Nodes {
		if nd := &tr.Nodes[i]; nd.Leaf && nd.Count > 8 && disjoint(i, spans) {
			big = i
		}
	}
	if big < 0 {
		t.Fatal("the coincident clump is not one leaf of more than 8 particles")
	}
	spans = append(spans, int32(big))
	var leaves []int32
	for i := range tr.Nodes {
		if nd := &tr.Nodes[i]; nd.Leaf && nd.Count > 0 {
			leaves = append(leaves, int32(i))
		}
	}

	for _, cut := range []struct {
		name   string
		groups []int32
	}{{"spans", spans}, {"leaves", leaves}} {
		for _, theta := range []float64{0, 0.3, 0.6} {
			split := checkTileWalk(t, tr, cut.groups, theta, 1, 3)
			if theta > 0 && split == 0 {
				t.Fatalf("%s θ=%g: no tile met a cell its lanes decided differently", cut.name, theta)
			}
		}
	}
}
