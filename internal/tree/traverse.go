package tree

import (
	"math"
	"sync"

	"repro/internal/kernel"
	"repro/internal/vec"
)

// MACSq is the Barnes-Hut multipole acceptance criterion on squared
// quantities: a cell of size s at distance d from the target may be
// used as a single interaction partner when s/d ≤ θ (Fig. 4 of the
// paper), tested as s² ≤ θ²·d² with d² > 0 so the accept/reject
// decision needs no square root; callers precompute theta2 = θ² once
// per traversal. θ = 0 never accepts a cell, reducing the tree code to
// direct summation over the leaves.
func MACSq(theta2, size2, dist2 float64) bool {
	return dist2 > 0 && size2 <= theta2*dist2
}

// MACKind names the acceptance criterion of AppendInteractionList.
// Barnes-Hut is the only one; the type and its one value remain because
// internal/bench passes MACBarnesHut.
type MACKind int

// MACBarnesHut is the classical criterion s/d ≤ θ with d measured to
// the cell centroid (the paper's choice).
const MACBarnesHut MACKind = 0

// stackPool recycles the stacks of the per-particle walks — the
// recursive oracle (vortexAt, coulombAt) — and of
// AppendInteractionList, so a walk per target does not allocate one.
var stackPool = sync.Pool{
	New: func() any { s := make([]int32, 0, 128); return &s },
}

func getStack() *[]int32  { return stackPool.Get().(*[]int32) }
func putStack(s *[]int32) { *s = (*s)[:0]; stackPool.Put(s) }

// VortexResult is the velocity and velocity gradient at one target
// point with the counters of the walk that produced it.
type VortexResult struct {
	U    vec.Vec3
	Grad vec.Mat3
	// Interactions counts accepted cells plus directly summed
	// particles.
	Interactions int64
	// CellAccepts counts the MAC-accepted cluster interactions alone
	// (the particle–particle share is Interactions − CellAccepts).
	CellAccepts int64
	// Rejects counts cells the MAC refused and the traversal opened —
	// the per-rank accept/reject balance of the θ choice.
	Rejects int64
}

// leafSkip translates the target's lane into an index relative to
// leaf nd (-1 when the target is not in the leaf).
func leafSkip(nd *Node, skipSorted int) int {
	if skipSorted < nd.First || skipSorted >= nd.First+nd.Count {
		return -1
	}
	return skipSorted - nd.First
}

// open pushes the children of the MAC-rejected cell nd onto stack in
// digit order. A non-empty cell without children is one whose subtree
// the tree does not hold — only package hot's locally essential tree
// has such cells, remote cells the branch exchange did not resolve —
// and opening one panics with the cell instead of skipping its
// particles silently.
func open(stack []int32, nd *Node) []int32 {
	n := len(stack)
	for _, ci := range nd.Children {
		if ci >= 0 {
			stack = append(stack, ci)
		}
	}
	if len(stack) == n {
		panic(nd)
	}
	return stack
}

// vortexAt evaluates velocity and gradient at x by the per-particle
// traversal of the subtree rooted at node start — the recursive
// evaluator, and the oracle the tile walk is held bitwise equal to:
// tileWalk's stream items do the same arithmetic for the lanes of a
// tile (kernel.VortexBatch.AccumGradStream), in the same order.
// skipSorted, when ≥ 0, is the lane of a particle to exclude (the
// target itself). useDipole adds each accepted cell's dipole.
func (t *Tree) vortexAt(start int32, x vec.Vec3, theta float64, skipSorted int, b *kernel.VortexBatch, useDipole bool) VortexResult {
	var acc kernel.VortexAcc
	var accepts, rejects int64
	theta2 := theta * theta
	sp := getStack()
	stack := append(*sp, start)
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[idx]
		if nd.Count == 0 {
			continue
		}
		if !nd.Leaf {
			if MACSq(theta2, nd.Size*nd.Size, x.Sub(nd.Centroid).Norm2()) {
				// The far leg: the cell's multipole (monopole +
				// optional dipole) as a single interaction.
				rx, ry, rz := x.X-nd.Centroid.X, x.Y-nd.Centroid.Y, x.Z-nd.Centroid.Z
				b.AccumGrad(&acc, rx, ry, rz, nd.CircSum.X, nd.CircSum.Y, nd.CircSum.Z)
				if useDipole {
					ux, uy, uz := kernel.DipoleVel(rx, ry, rz, &nd.Dipole)
					acc.UX += ux
					acc.UY += uy
					acc.UZ += uz
				}
				acc.N++
				accepts++
				continue
			}
			rejects++
			stack = open(stack, nd)
			continue
		}
		// The near leg: leaf nd by batched direct summation over its
		// lanes.
		lo, hi := nd.First, nd.First+nd.Count
		l := t.Lanes
		b.AccumGradRange(&acc, x.X, x.Y, x.Z,
			l.X[lo:hi], l.Y[lo:hi], l.Z[lo:hi],
			l.AX[lo:hi], l.AY[lo:hi], l.AZ[lo:hi], leafSkip(nd, skipSorted))
	}
	*sp = stack
	putStack(sp)
	return VortexResult{
		U: vec.V3(acc.UX, acc.UY, acc.UZ),
		Grad: vec.Mat3{
			{acc.G[0], acc.G[1], acc.G[2]},
			{acc.G[3], acc.G[4], acc.G[5]},
			{acc.G[6], acc.G[7], acc.G[8]},
		},
		Interactions: acc.N,
		CellAccepts:  accepts,
		Rejects:      rejects,
	}
}

// legs are the discipline of a tile walk: what a lane adds for a cell
// it accepts and for a leaf — a stream item (vortex) or a scalar leg
// per lane (Coulomb). The walk around them — the per-lane MAC
// decision, the masked open — is the same for both disciplines.
type legs struct {
	disc   Discipline
	vb     kernel.VortexBatch // vortex: the pair kernel (σ is the system's)
	dipole bool               // vortex: add each accepted cell's dipole
	eps    float64            // Coulomb: the softening
}

// tileWalk is the tile walk's state: up to kernel.TileWidth targets in
// the lanes of one tile — lane l is the particle at sorted position
// first+l — their sums (vortex in the GradTile, Coulomb in coul), the
// vortex items not yet run, their MAC counters, the vector slots the
// vortex items take (an item's sources times the tile width, masked
// lanes included), and the walk's (cell, lane mask) stack. The solver
// holds one per worker.
type tileWalk struct {
	tile             kernel.GradTile
	stream           kernel.TileStream
	coul             [kernel.TileWidth]kernel.CoulombAcc
	first            int
	accepts, rejects [kernel.TileWidth]int64
	slots            int64
	stack            []maskedCell
	_                [64]byte // keeps the next worker's walk off this one's cache lines
}

// maskedCell is a cell on the tile walk's stack with the lanes that
// reach it.
type maskedCell struct {
	node int32
	mask uint8
}

// walk evaluates the n targets at sorted positions [first, first+n)
// from the root: one walk for all of them, with each lane in a cell's
// mask making its own MAC decision. A lane that accepts the cell adds
// it through lg's far leg; a lane that opens it counts a reject and
// reaches the children, pushed under the mask of the lanes that opened
// it in open's order; a leaf goes through lg's near leg, each lane
// with its own skip. Restricted to the cells one lane reaches — a set
// closed under ancestors — the walk's preorder is that lane's own
// walk's preorder, so every lane sums exactly the terms vortexAt or
// coulombAt sums, in the same order. The vortex legs append to the
// stream in that order, and the stream runs whenever it is full and
// once at the end (DESIGN.md §14).
func (w *tileWalk) walk(t *Tree, lg *legs, theta float64, first, n int) {
	const tw = kernel.TileWidth
	theta2 := theta * theta
	tl, ln := &w.tile, t.Lanes
	w.first = first
	for l := range tw {
		i := first + min(l, n-1) // spare lanes repeat the last target
		tl.X[l], tl.Y[l], tl.Z[l] = ln.X[i], ln.Y[i], ln.Z[i]
		tl.Skip[l] = first + l // each target skips its own lane
	}
	if lg.disc == Coulomb {
		w.coul = [tw]kernel.CoulombAcc{}
	} else {
		tl.Reset()
	}
	w.accepts, w.rejects, w.slots = [tw]int64{}, [tw]int64{}, 0
	stack := append(w.stack[:0], maskedCell{int32(t.Root), kernel.AllLanes >> (tw - n)})
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[top.node]
		if nd.Count == 0 {
			continue
		}
		if nd.Leaf {
			if lg.disc == Coulomb {
				w.nearCoulomb(t, nd, top.mask, lg.eps)
			} else {
				w.stream.Leaf(top.mask, nd.First, nd.First+nd.Count)
				w.slots += int64(nd.Count) * tw
				w.flushFull(t, &lg.vb)
			}
			continue
		}
		s2 := nd.Size * nd.Size
		var accept, opened uint8
		for l := range tw {
			if top.mask>>l&1 == 0 {
				continue
			}
			if MACSq(theta2, s2, vec.V3(tl.X[l], tl.Y[l], tl.Z[l]).Sub(nd.Centroid).Norm2()) {
				accept |= 1 << l
				w.accepts[l]++
			} else {
				opened |= 1 << l
				w.rejects[l]++
			}
		}
		if accept != 0 {
			if lg.disc == Coulomb {
				w.farCoulomb(nd, accept)
			} else {
				var dip *vec.Mat3
				if lg.dipole {
					dip = &nd.Dipole
				}
				w.stream.Cell(accept, nd.Centroid, nd.CircSum, dip)
				w.slots += tw
				w.flushFull(t, &lg.vb)
			}
		}
		if opened != 0 {
			// open, under a mask.
			k := len(stack)
			for _, ci := range nd.Children {
				if ci >= 0 {
					stack = append(stack, maskedCell{ci, opened})
				}
			}
			if len(stack) == k {
				panic(nd)
			}
		}
	}
	w.stack = stack
	if lg.disc == Vortex {
		w.flush(t, &lg.vb)
	}
}

// flushFull runs the stream into the tile when it has no room left.
func (w *tileWalk) flushFull(t *Tree, b *kernel.VortexBatch) {
	if w.stream.Full() {
		w.flush(t, b)
	}
}

// flush runs the stream's items, in walk order, on the tile's lanes:
// the leaf items' sources are t's lanes.
func (w *tileWalk) flush(t *Tree, b *kernel.VortexBatch) {
	ln := t.Lanes
	b.AccumGradStream(&w.tile, &w.stream, ln.X, ln.Y, ln.Z, ln.AX, ln.AY, ln.AZ)
}

// farCoulomb is coulombAt's far leg for each lane of mask.
func (w *tileWalk) farCoulomb(nd *Node, mask uint8) {
	tl := &w.tile
	for l := range kernel.TileWidth {
		if mask>>l&1 != 0 {
			coulombFar(&w.coul[l], nd, vec.V3(tl.X[l], tl.Y[l], tl.Z[l]))
		}
	}
}

// nearCoulomb is coulombAt's near leg for each lane of mask: leaf
// nd's range, each lane skipping its own target.
func (w *tileWalk) nearCoulomb(t *Tree, nd *Node, mask uint8, eps float64) {
	tl, ln := &w.tile, t.Lanes
	lo, hi := nd.First, nd.First+nd.Count
	xs, ys, zs, qs := ln.X[lo:hi], ln.Y[lo:hi], ln.Z[lo:hi], ln.Q[lo:hi]
	for l := range kernel.TileWidth {
		if mask>>l&1 != 0 {
			kernel.AccumCoulombRange(&w.coul[l], tl.X[l], tl.Y[l], tl.Z[l], eps, xs, ys, zs, qs, leafSkip(nd, w.first+l))
		}
	}
}

// vortexLane reads lane l's velocity, velocity gradient and counters
// in place from the tile after a vortex walk (the same bits vortexAt
// copies out of a scalar accumulator).
func (w *tileWalk) vortexLane(l int) (vec.Vec3, vec.Mat3, counts) {
	a := &w.tile.Acc
	return vec.V3(a[0][l], a[1][l], a[2][l]),
		vec.Mat3{
			{a[3][l], a[4][l], a[5][l]},
			{a[6][l], a[7][l], a[8][l]},
			{a[9][l], a[10][l], a[11][l]},
		},
		counts{w.tile.N[l], w.accepts[l], w.rejects[l]}
}

// coulombResult is lane l's CoulombResult after a Coulomb walk.
func (w *tileWalk) coulombResult(l int) CoulombResult {
	return coulombResult(&w.coul[l], w.accepts[l], w.rejects[l])
}

// CoulombResult is the potential and field at one target point with
// the counters of the walk that produced it (as in VortexResult).
type CoulombResult struct {
	Phi          float64
	E            vec.Vec3
	Interactions int64
	CellAccepts  int64
	Rejects      int64
}

// coulombCell evaluates the multipole expansion (monopole + dipole +
// quadrupole) of an accepted cell at separation r (target − centroid).
func coulombCell(r vec.Vec3, nd *Node) (float64, vec.Vec3) {
	r2 := r.Norm2()
	r1 := math.Sqrt(r2)
	r3 := r2 * r1
	r5 := r3 * r2
	r7 := r5 * r2
	// Monopole.
	phi := nd.Charge / r1
	e := r.Scale(nd.Charge / r3)
	// Dipole.
	dr := nd.DipoleQ.Dot(r)
	phi += dr / r3
	e = e.Add(r.Scale(3 * dr / r5)).Sub(nd.DipoleQ.Scale(1 / r3))
	// Quadrupole (traceless): φ += r·Q·r/(2r⁵),
	// E = −∇φ: E_i += (5/2) r_i (rQr)/r⁷ − (Qr)_i/r⁵.
	qr := nd.QuadQ.MulVec(r)
	rqr := r.Dot(qr)
	phi += rqr / (2 * r5)
	e = e.Add(r.Scale(2.5 * rqr / r7)).Sub(qr.Scale(1 / r5))
	return phi, e
}

// coulombFar folds one MAC-accepted cell's multipole expansion at
// target x into acc as a single interaction — the far leg of every
// Coulomb evaluator.
func coulombFar(acc *kernel.CoulombAcc, nd *Node, x vec.Vec3) {
	phi, f := coulombCell(x.Sub(nd.Centroid), nd)
	acc.Phi += phi
	acc.EX += f.X
	acc.EY += f.Y
	acc.EZ += f.Z
	acc.N++
}

// coulombResult converts one target's sums and MAC counters into a
// CoulombResult.
func coulombResult(acc *kernel.CoulombAcc, cellAccepts, rejects int64) CoulombResult {
	return CoulombResult{
		Phi:          acc.Phi,
		E:            vec.V3(acc.EX, acc.EY, acc.EZ),
		Interactions: acc.N,
		CellAccepts:  cellAccepts,
		Rejects:      rejects,
	}
}

// coulombAt evaluates the softened Coulomb potential and field at x by
// the per-particle traversal of the subtree rooted at node start — the
// recursive evaluator, and the oracle the tile walk is held bitwise
// equal to. skipSorted, when ≥ 0, is the lane of a particle to exclude
// (the target itself).
func (t *Tree) coulombAt(start int32, x vec.Vec3, theta, eps float64, skipSorted int) CoulombResult {
	var acc kernel.CoulombAcc
	var accepts, rejects int64
	theta2 := theta * theta
	sp := getStack()
	stack := append(*sp, start)
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[idx]
		if nd.Count == 0 {
			continue
		}
		if !nd.Leaf {
			if MACSq(theta2, nd.Size*nd.Size, x.Sub(nd.Centroid).Norm2()) {
				coulombFar(&acc, nd, x)
				accepts++
				continue
			}
			rejects++
			stack = open(stack, nd)
			continue
		}
		// The near leg: leaf nd by batched direct summation over its
		// lanes.
		lo, hi := nd.First, nd.First+nd.Count
		l := t.Lanes
		kernel.AccumCoulombRange(&acc, x.X, x.Y, x.Z, eps,
			l.X[lo:hi], l.Y[lo:hi], l.Z[lo:hi], l.Q[lo:hi], leafSkip(nd, skipSorted))
	}
	*sp = stack
	putStack(sp)
	return coulombResult(&acc, accepts, rejects)
}
