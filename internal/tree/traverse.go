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

// stackPool recycles traversal stacks across walks; per-call stack
// allocations would otherwise dominate the allocation profile of a
// force evaluation (one walk per target, thousands of targets).
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

// vortexEval is one target's running sum over a walk: the kernel's
// scalar accumulator plus the MAC counters it does not track. The
// recursive walk and the near/far split accumulate through its three
// legs, in the order they meet the cells; tileWalk's legs do the same
// arithmetic for the lanes of a tile, so every evaluator sums the same
// terms in the same order.
type vortexEval struct {
	b           *kernel.VortexBatch
	acc         kernel.VortexAcc
	cellAccepts int64
	rejects     int64
}

// dipoleVel is the dipole correction of an accepted cell's velocity:
// the first-order term of the multipole expansion of the Biot-Savart
// kernel around the cell centroid. It always uses the singular (q = 1)
// kernel and has no zero-separation guard: accepted cells are well
// separated (dist > 0). One reciprocal of |r| gives both powers.
func dipoleVel(rx, ry, rz float64, dip *vec.Mat3) (ux, uy, uz float64) {
	inv := 1 / math.Sqrt(rx*rx+ry*ry+rz*rz)
	inv2 := inv * inv
	tf := inv2 * inv // 1/|r|³
	// w_k = Σ_j r_j D_{jk}
	wx := dip[0][0]*rx + dip[1][0]*ry + dip[2][0]*rz
	wy := dip[0][1]*rx + dip[1][1]*ry + dip[2][1]*rz
	wz := dip[0][2]*rx + dip[1][2]*ry + dip[2][2]*rz
	// C = Σ d_p × α_p (antisymmetric part of D)
	cx := dip[1][2] - dip[2][1]
	cy := dip[2][0] - dip[0][2]
	cz := dip[0][1] - dip[1][0]
	s := 3 * tf * inv2 // 3/|r|⁵
	ux = s * (ry*wz - rz*wy)
	uy = s * (rz*wx - rx*wz)
	uz = s * (rx*wy - ry*wx)
	ux = ux - tf*cx
	uy = uy - tf*cy
	uz = uz - tf*cz
	const k = -1 / (4 * math.Pi)
	return k * ux, k * uy, k * uz
}

// far folds one MAC-accepted cell into the accumulator as a single
// interaction: the multipole (monopole + optional dipole) of nd at
// target x — the far-field leg of every vortex evaluator.
func (e *vortexEval) far(nd *Node, x vec.Vec3, useDipole bool) {
	rx := x.X - nd.Centroid.X
	ry := x.Y - nd.Centroid.Y
	rz := x.Z - nd.Centroid.Z
	e.b.AccumGrad(&e.acc, rx, ry, rz, nd.CircSum.X, nd.CircSum.Y, nd.CircSum.Z)
	if useDipole {
		ux, uy, uz := dipoleVel(rx, ry, rz, &nd.Dipole)
		e.acc.UX += ux
		e.acc.UY += uy
		e.acc.UZ += uz
	}
	e.acc.N++
	e.cellAccepts++
}

// leafSkip translates the target's lane into an index relative to
// leaf nd (-1 when the target is not in the leaf).
func leafSkip(nd *Node, skipSorted int) int {
	if skipSorted < nd.First || skipSorted >= nd.First+nd.Count {
		return -1
	}
	return skipSorted - nd.First
}

// near folds the particles of leaf nd into the accumulator by batched
// direct summation over its lane range. skipSorted is the target's
// lane (-1: none).
func (e *vortexEval) near(t *Tree, nd *Node, x vec.Vec3, skipSorted int) {
	lo, hi := nd.First, nd.First+nd.Count
	skip := leafSkip(nd, skipSorted)
	l := t.Lanes
	e.b.AccumGradRange(&e.acc, x.X, x.Y, x.Z,
		l.X[lo:hi], l.Y[lo:hi], l.Z[lo:hi],
		l.AX[lo:hi], l.AY[lo:hi], l.AZ[lo:hi], skip)
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

// walk runs the per-particle MAC traversal of the subtree rooted at
// start, accumulating into e (it does not reset e).
func (e *vortexEval) walk(t *Tree, start int32, x vec.Vec3, theta float64, skipSorted int, useDipole bool) {
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
			r2 := x.Sub(nd.Centroid).Norm2()
			if MACSq(theta2, nd.Size*nd.Size, r2) {
				e.far(nd, x, useDipole)
				continue
			}
			e.rejects++
			stack = open(stack, nd)
			continue
		}
		e.near(t, nd, x, skipSorted)
	}
	*sp = stack
	putStack(sp)
}

// result converts the scalar accumulator into a VortexResult.
func (e *vortexEval) result() VortexResult {
	return vortexResult(&e.acc, e.cellAccepts, e.rejects)
}

// vortexResult converts one target's sums and MAC counters into a
// VortexResult — a pure bit copy, performed once after the full
// accumulation.
func vortexResult(acc *kernel.VortexAcc, cellAccepts, rejects int64) VortexResult {
	return VortexResult{
		U: vec.V3(acc.UX, acc.UY, acc.UZ),
		Grad: vec.Mat3{
			{acc.G[0], acc.G[1], acc.G[2]},
			{acc.G[3], acc.G[4], acc.G[5]},
			{acc.G[6], acc.G[7], acc.G[8]},
		},
		Interactions: acc.N,
		CellAccepts:  cellAccepts,
		Rejects:      rejects,
	}
}

// skipLane translates an original particle index into its lane (-1:
// skip none). Order is a bijection, so lane sortedPos[skipOrig] is that
// particle.
func (t *Tree) skipLane(skipOrig int) int {
	if skipOrig < 0 {
		return -1
	}
	return int(t.sortedPos[skipOrig])
}

// vortexAt evaluates velocity and gradient at x by the per-particle
// traversal of the subtree rooted at node start: the recursive
// evaluator, and the oracle the tile walk is held bitwise equal to.
// skipSorted, when ≥ 0, is the lane of a particle to exclude (the
// target itself). useDipole enables the
// dipole correction of accepted cells.
func (t *Tree) vortexAt(start int32, x vec.Vec3, theta float64, skipSorted int, b *kernel.VortexBatch, useDipole bool) VortexResult {
	e := vortexEval{b: b}
	e.walk(t, start, x, theta, skipSorted, useDipole)
	return e.result()
}

// legs are the discipline of a tile walk: what a lane adds for a cell
// it accepts and for a leaf. The walk around them — the per-lane MAC
// decision, the masked open — is the same for both disciplines.
type legs struct {
	disc   Discipline
	vb     kernel.VortexBatch // vortex: the pair kernel (σ is the system's)
	dipole bool               // vortex: add each accepted cell's dipole
	eps    float64            // Coulomb: the softening
}

// tileWalk is the tile walk's state: up to kernel.TileWidth targets in
// the lanes of one tile — lane l is the particle at sorted position
// first+l — their sums (vortex in the GradTile, Coulomb in coul),
// their MAC counters, and the walk's (cell, lane mask) stack. The
// solver holds one per worker.
type tileWalk struct {
	tile             kernel.GradTile
	coul             [kernel.TileWidth]kernel.CoulombAcc
	first            int
	accepts, rejects [kernel.TileWidth]int64
	src              [6]float64 // an accepted cell as a one-source range: centroid, circulation sum
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
// coulombAt sums, in the same order.
func (w *tileWalk) walk(t *Tree, lg *legs, theta float64, first, n int) {
	const tw = kernel.TileWidth
	theta2 := theta * theta
	tl, ln := &w.tile, t.Lanes
	w.first = first
	for l := range tw {
		i := first + min(l, n-1) // spare lanes repeat the last target
		tl.X[l], tl.Y[l], tl.Z[l] = ln.X[i], ln.Y[i], ln.Z[i]
	}
	if lg.disc == Coulomb {
		w.coul = [tw]kernel.CoulombAcc{}
	} else {
		tl.Reset()
	}
	w.accepts, w.rejects = [tw]int64{}, [tw]int64{}
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
				w.near(t, &lg.vb, nd, top.mask)
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
				w.far(&lg.vb, nd, accept, lg.dipole)
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
}

// far is vortexEval.far for the lanes of mask: the cell as a
// one-source tile range, then the dipole lane by lane.
func (w *tileWalk) far(b *kernel.VortexBatch, nd *Node, mask uint8, useDipole bool) {
	const tw = kernel.TileWidth
	tl, s := &w.tile, &w.src
	s[0], s[1], s[2] = nd.Centroid.X, nd.Centroid.Y, nd.Centroid.Z
	s[3], s[4], s[5] = nd.CircSum.X, nd.CircSum.Y, nd.CircSum.Z
	tl.Skip = [tw]int{-1, -1, -1, -1}
	tl.Mask = mask
	b.AccumGradTile(tl, s[0:1], s[1:2], s[2:3], s[3:4], s[4:5], s[5:6])
	if !useDipole {
		return
	}
	for l := range tw {
		if mask>>l&1 == 0 {
			continue
		}
		ux, uy, uz := dipoleVel(tl.X[l]-nd.Centroid.X, tl.Y[l]-nd.Centroid.Y, tl.Z[l]-nd.Centroid.Z, &nd.Dipole)
		tl.Acc[0][l] += ux
		tl.Acc[1][l] += uy
		tl.Acc[2][l] += uz
	}
}

// near is vortexEval.near for the lanes of mask: leaf nd as one tile
// range, each lane skipping its own target.
func (w *tileWalk) near(t *Tree, b *kernel.VortexBatch, nd *Node, mask uint8) {
	tl := &w.tile
	for l := range tl.Skip {
		tl.Skip[l] = leafSkip(nd, w.first+l)
	}
	tl.Mask = mask
	lo, hi := nd.First, nd.First+nd.Count
	l := t.Lanes
	b.AccumGradTile(tl, l.X[lo:hi], l.Y[lo:hi], l.Z[lo:hi], l.AX[lo:hi], l.AY[lo:hi], l.AZ[lo:hi])
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

// vortexResult is lane l's VortexResult after a vortex walk.
func (w *tileWalk) vortexResult(l int) VortexResult {
	acc := w.tile.Lane(l)
	return vortexResult(&acc, w.accepts[l], w.rejects[l])
}

// coulombResult is lane l's CoulombResult after a Coulomb walk.
func (w *tileWalk) coulombResult(l int) CoulombResult {
	return coulombResult(&w.coul[l], w.accepts[l], w.rejects[l])
}

// VortexAtSplit is the classical Barnes-Hut walk of vortexAt with the
// result separated into the
// near field (direct leaf interactions) and the far field
// (MAC-accepted cluster interactions), each summed by the same leg as
// in every other evaluator. The split is the basis of the
// frequency-split coarse propagator suggested in the paper's outlook
// (Section V): far-field contributions change slowly and can be
// refreshed less often than near-field ones. With computeFar false the
// accepted clusters are skipped entirely (their cached contribution is
// reused by the caller), which is where the cost saving comes from.
//
// Unlike the standard traversal, MAC-accepted *leaf* buckets are also
// treated as far clusters (leaves carry full multipole data), so the
// far fraction stays substantial even for small ensembles. A target's
// own leaf always fails the MAC (the target sits inside the cell, so
// s/d > 1), hence self-interactions cannot leak into the far part.
func (t *Tree) VortexAtSplit(start int, x vec.Vec3, theta float64, skipOrig int, b *kernel.VortexBatch, useDipole, computeFar bool) (near, far VortexResult) {
	en := vortexEval{b: b}
	ef := vortexEval{b: b}
	skipSorted := t.skipLane(skipOrig)
	theta2 := theta * theta
	sp := getStack()
	stack := append(*sp, int32(start))
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[idx]
		if nd.Count == 0 {
			continue
		}
		if MACSq(theta2, nd.Size*nd.Size, x.Sub(nd.Centroid).Norm2()) {
			if computeFar {
				ef.far(nd, x, useDipole)
			}
			continue
		}
		if nd.Leaf {
			en.near(t, nd, x, skipSorted)
			continue
		}
		en.rejects++
		for _, ci := range nd.Children {
			if ci >= 0 {
				stack = append(stack, ci)
			}
		}
	}
	*sp = stack
	putStack(sp)
	return en.result(), ef.result()
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
// target x into acc as a single interaction — the far-field leg of
// every Coulomb evaluator.
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
