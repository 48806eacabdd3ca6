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
// recursive walk, the near/far split and the list evaluator's
// ambiguous items accumulate through its three legs, in the order they
// meet the cells; vortexTiles' legs do the same arithmetic for a whole
// target group, so every evaluator sums the same terms in the same
// order.
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
// start, accumulating into e (it does not reset e). The
// interaction-list evaluator calls it for cells whose group-level
// accept/open decision is ambiguous, so both evaluators sum exactly
// the same terms in exactly the same order.
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
// evaluator, and the oracle the list evaluator is
// held bitwise equal to. skipSorted, when ≥ 0, is the lane of a
// particle to exclude (the target itself). useDipole enables the
// dipole correction of accepted cells.
func (t *Tree) vortexAt(start int32, x vec.Vec3, theta float64, skipSorted int, b *kernel.VortexBatch, useDipole bool) VortexResult {
	e := vortexEval{b: b}
	e.walk(t, start, x, theta, skipSorted, useDipole)
	return e.result()
}

// vortexTiles is a target group's running sums in tile layout, held
// for the whole list evaluation: target j of the group is lane
// j%TileWidth of tiles[j/TileWidth], and the spare lanes of the last
// tile duplicate the group's last target and are not live. farItems counts the group's
// far items; accepts[j] and rejects[j] are the MAC counters of target j's
// ambiguous walks. The scratch lives in the InteractionList, so it is
// pooled per worker.
type vortexTiles struct {
	tiles            []kernel.GradTile
	accepts, rejects []int64
	farItems         int64
	src              [6]float64 // a far item as a one-source range: centroid, circulation sum
}

// reset sizes the tiles for the count targets at lanes first.. and
// zeroes their sums.
func (v *vortexTiles) reset(t *Tree, first, count int) {
	const w = kernel.TileWidth
	nt := (count + w - 1) / w
	if cap(v.tiles) < nt {
		v.tiles = make([]kernel.GradTile, nt)
	}
	if cap(v.accepts) < count {
		v.accepts = make([]int64, count)
		v.rejects = make([]int64, count)
	}
	v.tiles, v.accepts, v.rejects = v.tiles[:nt], v.accepts[:count], v.rejects[:count]
	clear(v.accepts)
	clear(v.rejects)
	v.farItems = 0
	for j := range nt * w {
		tl := &v.tiles[j/w]
		p := t.Particle(first + min(j, count-1)).Pos
		tl.X[j%w], tl.Y[j%w], tl.Z[j%w] = p.X, p.Y, p.Z
	}
	for i := range v.tiles {
		v.tiles[i].Live = min(w, count-i*w)
		v.tiles[i].Reset()
	}
}

// far is vortexEval.far for every target of the group: the cell as a
// one-source tile range, then the dipole lane by lane.
func (v *vortexTiles) far(b *kernel.VortexBatch, nd *Node, useDipole bool) {
	const w = kernel.TileWidth
	s := &v.src
	s[0], s[1], s[2] = nd.Centroid.X, nd.Centroid.Y, nd.Centroid.Z
	s[3], s[4], s[5] = nd.CircSum.X, nd.CircSum.Y, nd.CircSum.Z
	for i := range v.tiles {
		tl := &v.tiles[i]
		tl.Skip = [w]int{-1, -1, -1, -1}
		b.AccumGradTile(tl, s[0:1], s[1:2], s[2:3], s[3:4], s[4:5], s[5:6])
	}
	if useDipole {
		for j := range v.accepts {
			tl, k := &v.tiles[j/w], j%w
			ux, uy, uz := dipoleVel(tl.X[k]-nd.Centroid.X, tl.Y[k]-nd.Centroid.Y, tl.Z[k]-nd.Centroid.Z, &nd.Dipole)
			tl.Acc[0][k] += ux
			tl.Acc[1][k] += uy
			tl.Acc[2][k] += uz
		}
	}
	v.farItems++
}

// near is vortexEval.near for every target of the group; first is the
// lane of the group's target 0. A leaf that holds none of the group's
// targets skips no source.
func (v *vortexTiles) near(t *Tree, b *kernel.VortexBatch, nd *Node, first int) {
	const w = kernel.TileWidth
	lo, hi := nd.First, nd.First+nd.Count
	l := t.Lanes
	last := len(v.accepts) - 1
	own := lo <= first+last && first < hi // the leaf holds a target of the group
	for i := range v.tiles {
		tl := &v.tiles[i]
		tl.Skip = [w]int{-1, -1, -1, -1}
		if own {
			for k := range w {
				tl.Skip[k] = leafSkip(nd, first+min(i*w+k, last))
			}
		}
		b.AccumGradTile(tl, l.X[lo:hi], l.Y[lo:hi], l.Z[lo:hi], l.AX[lo:hi], l.AY[lo:hi], l.AZ[lo:hi])
	}
}

// walk is vortexEval.walk for every target of the group: each target's
// lane is copied out, walked and copied back.
func (v *vortexTiles) walk(t *Tree, b *kernel.VortexBatch, start int32, theta float64, first int, useDipole bool) {
	const w = kernel.TileWidth
	for j := range v.accepts {
		tl, k := &v.tiles[j/w], j%w
		e := vortexEval{b: b, acc: tl.Lane(k)}
		e.walk(t, start, vec.V3(tl.X[k], tl.Y[k], tl.Z[k]), theta, first+j, useDipole)
		tl.SetLane(k, &e.acc)
		v.accepts[j] += e.cellAccepts
		v.rejects[j] += e.rejects
	}
}

// result is target j's VortexResult; opens are the cells the group
// walk opened on every target's behalf.
func (v *vortexTiles) result(j int, opens int64) VortexResult {
	acc := v.tiles[j/kernel.TileWidth].Lane(j % kernel.TileWidth)
	return vortexResult(&acc, v.farItems+v.accepts[j], opens+v.rejects[j])
}

// evalVortexTiles evaluates the count targets at lanes first.. of a
// group against the group's prepared interaction list, item-major: for
// each item in list order every target advances — far items through
// the tile as one source plus the dipole, near items as tile ranges,
// ambiguous items by the exact per-particle walk. Each target sums the
// terms vortexAt sums on the subtree the list was built from, in the
// same order; vortexTiles.result reads them back.
func (t *Tree) evalVortexTiles(list *InteractionList, theta float64, first, count int, b *kernel.VortexBatch, useDipole bool) {
	v := &list.tiles
	v.reset(t, first, count)
	for _, it := range list.Items {
		switch it.Kind {
		case ItemFar:
			v.far(b, &t.Nodes[it.Node], useDipole)
		case ItemNear:
			v.near(t, b, &t.Nodes[it.Node], first)
		default:
			v.walk(t, b, it.Node, theta, first, useDipole)
		}
	}
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

// coulombEval is vortexEval for the Coulomb discipline.
type coulombEval struct {
	acc         kernel.CoulombAcc
	cellAccepts int64
	rejects     int64
}

// far folds one MAC-accepted cell's multipole expansion at target x
// into the accumulator as a single interaction.
func (e *coulombEval) far(nd *Node, x vec.Vec3) {
	phi, f := coulombCell(x.Sub(nd.Centroid), nd)
	e.acc.Phi += phi
	e.acc.EX += f.X
	e.acc.EY += f.Y
	e.acc.EZ += f.Z
	e.acc.N++
	e.cellAccepts++
}

// near folds leaf nd by batched direct summation over its lanes.
func (e *coulombEval) near(t *Tree, nd *Node, x vec.Vec3, eps float64, skipSorted int) {
	lo, hi := nd.First, nd.First+nd.Count
	skip := leafSkip(nd, skipSorted)
	l := t.Lanes
	kernel.AccumCoulombRange(&e.acc, x.X, x.Y, x.Z, eps,
		l.X[lo:hi], l.Y[lo:hi], l.Z[lo:hi], l.Q[lo:hi], skip)
}

// walk is vortexEval.walk for the Coulomb discipline.
func (e *coulombEval) walk(t *Tree, start int32, x vec.Vec3, theta, eps float64, skipSorted int) {
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
				e.far(nd, x)
				continue
			}
			e.rejects++
			stack = open(stack, nd)
			continue
		}
		e.near(t, nd, x, eps, skipSorted)
	}
	*sp = stack
	putStack(sp)
}

func (e *coulombEval) result(opens int64) CoulombResult {
	return CoulombResult{
		Phi:          e.acc.Phi,
		E:            vec.V3(e.acc.EX, e.acc.EY, e.acc.EZ),
		Interactions: e.acc.N,
		CellAccepts:  e.cellAccepts,
		Rejects:      opens + e.rejects,
	}
}

// coulombAt evaluates the softened Coulomb potential and field at x by
// the per-particle traversal of the subtree rooted at node start.
func (t *Tree) coulombAt(start int32, x vec.Vec3, theta, eps float64, skipSorted int) CoulombResult {
	var e coulombEval
	e.walk(t, start, x, theta, eps, skipSorted)
	return e.result(0)
}

// evalCoulombList evaluates one target at x against a prepared
// interaction list: far items as multipoles, near items as direct
// sums, ambiguous items via the exact per-particle walk accumulating
// into the running result. The summation order is identical to
// coulombAt on the subtree the list was built from.
func (t *Tree) evalCoulombList(list *InteractionList, theta, eps float64, x vec.Vec3, skipSorted int) CoulombResult {
	var e coulombEval
	for _, it := range list.Items {
		switch it.Kind {
		case ItemFar:
			e.far(&t.Nodes[it.Node], x)
		case ItemNear:
			e.near(t, &t.Nodes[it.Node], x, eps, skipSorted)
		default:
			e.walk(t, it.Node, x, theta, eps, skipSorted)
		}
	}
	return e.result(list.Opens)
}
