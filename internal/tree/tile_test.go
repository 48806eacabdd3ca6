package tree

import (
	"math"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// target is one target's evaluation in either discipline: the bits of
// its whole result, the bits of what the solver writes for it (vortex:
// velocity and stretching; Coulomb: potential and field), and its
// interaction, accept and reject counts.
type target struct {
	res, out []uint64
	c        counts
}

func bits(fs ...float64) []uint64 {
	out := make([]uint64, len(fs))
	for k, f := range fs {
		out[k] = math.Float64bits(f)
	}
	return out
}

func vortexTarget(r VortexResult, stretch vec.Vec3) target {
	g := &r.Grad
	return target{
		res: bits(r.U.X, r.U.Y, r.U.Z, g[0][0], g[0][1], g[0][2], g[1][0], g[1][1], g[1][2], g[2][0], g[2][1], g[2][2]),
		out: bits(r.U.X, r.U.Y, r.U.Z, stretch.X, stretch.Y, stretch.Z),
		c:   counts{r.Interactions, r.CellAccepts, r.Rejects},
	}
}

func coulombTarget(r CoulombResult) target {
	b := bits(r.Phi, r.E.X, r.E.Y, r.E.Z)
	return target{res: b, out: b, c: counts{r.Interactions, r.CellAccepts, r.Rejects}}
}

// tileGroupSystem is a blob of alternating unit charges with random
// circulations plus a clump of twelve coincident particles: their
// Morton keys never separate, so they share one leaf at the level cap
// however small LeafCap is, and their tiles' lanes skip one another.
func tileGroupSystem() *particle.System {
	sys := particle.RandomVortexBlob(300, 0.15, 3)
	p0 := sys.Particles[0].Pos
	for k := range 11 {
		a := vec.V3(1e-3*float64(k+1), -2e-3, 5e-4*float64(k))
		sys.Particles = append(sys.Particles, particle.Particle{Pos: p0, Alpha: a})
	}
	alternateCharges(sys)
	return sys
}

// alternateCharges gives the particles of sys unit charges of
// alternating sign, so one system serves both disciplines.
func alternateCharges(sys *particle.System) {
	for i := range sys.Particles {
		sys.Particles[i].Charge = 1 - 2*float64(i%2)
	}
}

// splitCells counts the cells of one tile's walk — the targets at
// sorted positions [first, first+n) — that some of its lanes accept
// and others open.
func splitCells(tr *Tree, first, n int, theta float64) int {
	type item struct {
		node int32
		mask uint8
	}
	stack := []item{{int32(tr.Root), 1<<n - 1}}
	split := 0
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &tr.Nodes[it.node]
		if nd.Count == 0 || nd.Leaf {
			continue
		}
		var accept, opened uint8
		for l := range n {
			if it.mask>>l&1 == 0 {
				continue
			}
			if MACSq(theta*theta, nd.Size*nd.Size, tr.Particle(first+l).Pos.Sub(nd.Centroid).Norm2()) {
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

// checkTileWalk holds the tile walk over every target of tr, in the
// tree's discipline (Coulomb with softening eps), to the per-particle
// walk, bitwise with every counter equal: tile by tile, and through
// EvalTree or CoulombTree at each worker count. It returns the number
// of split cells the tiles met.
func checkTileWalk(t *testing.T, tr *Tree, theta, eps float64, workers ...int) (split int) {
	t.Helper()
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
	lg := legs{disc: tr.Discipline(), eps: eps, dipole: s.Dipole,
		vb: kernel.NewVortexBatch(kernel.Pairwise{Sm: s.Sm, Sigma: tr.sys.Sigma})}
	coulomb := lg.disc == Coulomb
	n := len(tr.Order)
	want := make([]target, n)
	var sum counts
	for i := range want {
		p := tr.Particle(i)
		if coulomb {
			want[i] = coulombTarget(tr.coulombAt(int32(tr.Root), p.Pos, theta, eps, i))
		} else {
			r := tr.vortexAt(int32(tr.Root), p.Pos, theta, i, &lg.vb, lg.dipole)
			want[i] = vortexTarget(r, s.Scheme.Stretch(r.Grad, p.Alpha))
		}
		sum.add(want[i].c)
	}
	var w tileWalk
	for k := 0; k < n; k += kernel.TileWidth {
		m := min(kernel.TileWidth, n-k)
		w.walk(tr, &lg, theta, k, m)
		for l := range m {
			var got target
			if coulomb {
				got = coulombTarget(w.coulombResult(l))
			} else {
				got = vortexTarget(w.vortexResult(l), vec.Vec3{})
			}
			if !slices.Equal(got.res, want[k+l].res) || got.c != want[k+l].c {
				t.Fatalf("disc=%v θ=%g target %d (lane %d of %d): tiled %+v, recursive %+v", lg.disc, theta, k+l, l, m, got, want[k+l])
			}
		}
		split += splitCells(tr, k, m, theta)
	}

	for _, workers := range workers {
		s.Workers = workers
		a, b, work := make([]vec.Vec3, n), make([]vec.Vec3, n), make([]float64, n)
		pot := make([]float64, n)
		var got counts
		if coulomb {
			got.inter, got.accepts, got.rejects = s.CoulombTree(tr, eps, pot, a, work)
		} else {
			got.inter, got.accepts, got.rejects = s.EvalTree(tr, a, b, work)
		}
		for i := range want {
			o := tr.Order[i]
			out := bits(a[o].X, a[o].Y, a[o].Z, b[o].X, b[o].Y, b[o].Z)
			if coulomb {
				out = bits(pot[o], a[o].X, a[o].Y, a[o].Z)
			}
			if !slices.Equal(out, want[i].out) {
				t.Fatalf("disc=%v θ=%g workers=%d: the solver differs from the recursive walk at target %d", lg.disc, theta, workers, i)
			}
			if work[o] != float64(want[i].c.inter) {
				t.Fatalf("disc=%v θ=%g workers=%d: target %d: %g interactions tiled, %d recursive", lg.disc, theta, workers, i, work[o], want[i].c.inter)
			}
		}
		if got != sum {
			t.Fatalf("disc=%v θ=%g workers=%d: counters %+v tiled, %+v recursive", lg.disc, theta, workers, got, sum)
		}
	}
	return split
}

// TestTiledGroupsMatchRecursive holds the tile walk to the recursive
// walk bitwise, with the interaction, accept and reject counts equal,
// per target and through EvalTree and CoulombTree at 1 and 3 workers,
// at θ = 0, 0.3 and 0.6, in both disciplines, on a system whose
// coincident clump is one leaf spanning several tiles. At θ > 0 some
// tile must meet a cell that one of its lanes accepts and another
// opens.
func TestTiledGroupsMatchRecursive(t *testing.T) {
	sys := tileGroupSystem()
	for _, disc := range []Discipline{Vortex, Coulomb} {
		tr := Build(sys, BuildConfig{LeafCap: 2, Discipline: disc})
		clump := false
		for i := range tr.Nodes {
			if nd := &tr.Nodes[i]; nd.Leaf && nd.Count >= 12 {
				clump = true
			}
		}
		if !clump {
			t.Fatalf("disc=%v: the coincident clump is not one leaf of 12 particles", disc)
		}
		for _, theta := range []float64{0, 0.3, 0.6} {
			split := checkTileWalk(t, tr, theta, 0.01, 1, 3)
			if theta > 0 && split == 0 {
				t.Fatalf("disc=%v θ=%g: no tile met a cell its lanes decided differently", disc, theta)
			}
		}
	}
}
