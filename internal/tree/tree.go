package tree

import (
	"fmt"

	"repro/internal/particle"
	"repro/internal/vec"
)

// Node is one cell of the oct-tree. Leaves reference a contiguous range
// of the Morton-sorted particle order; internal nodes reference up to
// eight children.
type Node struct {
	Center vec.Vec3 // geometric center of the cell
	Size   float64  // edge length of the cell

	// Particle range in the sorted order (valid for every node).
	First, Count int

	// Children holds node indices (-1 when absent); Leaf marks nodes
	// whose particles are interacted with directly.
	Children [8]int32
	Leaf     bool
	Level    int
	// Prefix is the Morton prefix of the cell (full-key resolution with
	// the bits below Level zeroed).
	Prefix uint64

	// Vortex multipole data: total circulation, |α|-weighted centroid,
	// and the dipole tensor D = Σ (x_p − centroid) ⊗ α_p.
	CircSum  vec.Vec3
	AbsCirc  float64
	Centroid vec.Vec3
	Dipole   vec.Mat3

	// Coulomb multipole data about Centroid (which is the |q|-weighted
	// centroid in the Coulomb discipline): net charge, dipole vector
	// d = Σ q_p (x_p − c), traceless quadrupole
	// Q_ij = Σ q_p (3 d_i d_j − |d|² δ_ij).
	Charge    float64
	AbsCharge float64
	DipoleQ   vec.Vec3
	QuadQ     vec.Mat3
}

// Discipline selects which multipole data a tree carries.
type Discipline int

const (
	// Vortex builds circulation moments for the vortex particle method.
	Vortex Discipline = iota
	// Coulomb builds charge moments for the plasma discipline.
	Coulomb
)

// Tree is a Barnes-Hut oct-tree over a particle system snapshot.
type Tree struct {
	Nodes  []Node
	Root   int
	Domain Domain
	// Order is the Morton-sorted permutation: Order[i] is the index in
	// the original particle slice of the i-th sorted particle.
	Order []int
	Keys  []uint64 // keys parallel to Order

	// Lanes is the struct-of-arrays mirror of the system gathered
	// under Order: lane i holds particle Order[i], so every node's
	// [First, First+Count) range is a contiguous run of all lanes.
	Lanes *particle.SoA

	sys        *particle.System
	discipline Discipline
	leafCap    int
	ownedLo    uint64
	ownedHi    uint64
	ownedSet   bool
	// sortedPos is the inverse of Order (sortedPos[Order[i]] = i): it
	// translates a skip target's original index into its lane.
	sortedPos []int32
}

// BuildConfig controls tree construction.
type BuildConfig struct {
	// LeafCap is the maximum number of particles per leaf (≥1);
	// 1 reproduces the classical Barnes-Hut tree.
	LeafCap int
	// Discipline selects the multipole data (Vortex or Coulomb).
	Discipline Discipline
	// Domain, when non-nil, overrides the domain derived from the
	// particle bounds. The parallel tree passes the global domain here
	// so cell prefixes agree across ranks.
	Domain *Domain
	// OwnedLo/OwnedHi, when OwnedSet, force subdivision of any cell
	// whose key range is not contained in [OwnedLo, OwnedHi]: leaves of
	// the resulting tree never straddle a domain-decomposition
	// boundary, which makes every leaf eligible as a branch node.
	OwnedLo, OwnedHi uint64
	OwnedSet         bool
	// Layout is read by nothing; it goes when internal/bench stops naming it.
	Layout particle.Layout
}

// Build constructs the oct-tree for the system. It is BuildInto over a
// fresh arena; evaluators that rebuild every step hold a persistent
// Arena instead so steady-state builds allocate nothing.
func Build(sys *particle.System, cfg BuildConfig) *Tree {
	return BuildInto(new(Arena), sys, cfg)
}

// build creates the node covering sorted particles [first, first+count)
// whose keys share the given level-prefix, and returns its index.
func (t *Tree) build(first, count, level int, prefix uint64) int {
	idx := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{
		First: first, Count: count, Level: level, Prefix: prefix,
		Size:   t.Domain.Size / float64(uint64(1)<<level),
		Center: t.Domain.CellCenter(prefix, level),
	})
	for i := range t.Nodes[idx].Children {
		t.Nodes[idx].Children[i] = -1
	}
	mayLeaf := count <= t.leafCap
	if mayLeaf && t.ownedSet && level < KeyBits {
		lo, hi := KeyRange(PlaceholderKey(prefix, level))
		if lo < t.ownedLo || hi > t.ownedHi {
			mayLeaf = false // straddles an ownership boundary: subdivide
		}
	}
	// Degenerate range: every key identical (coincident particles, or a
	// zero-extent domain collapsing all keys to one cell). No digit can
	// split it, so cut the leaf here instead of recursing a chain of
	// single-child cells to full key depth. With ownership boundaries the
	// chain is kept: it terminates in the single-key cell, which never
	// straddles a boundary, preserving the branch-node invariant.
	if !mayLeaf && !t.ownedSet && t.Keys[first] == t.Keys[first+count-1] {
		mayLeaf = true
	}
	if mayLeaf || level >= KeyBits {
		t.Nodes[idx].Leaf = true
		t.accumulateLeaf(idx)
		return idx
	}
	// Partition the sorted range by the 3-bit digit at this level.
	lo := first
	for digit := 0; digit < 8; digit++ {
		hi := lo
		for hi < first+count && ChildDigit(t.Keys[hi], level) == digit {
			hi++
		}
		if hi > lo {
			shift := uint(3 * (KeyBits - 1 - level))
			childPrefix := prefix | uint64(digit)<<shift
			child := t.build(lo, hi-lo, level+1, childPrefix)
			t.Nodes[idx].Children[digit] = int32(child)
		}
		lo = hi
	}
	t.accumulateInternal(idx)
	return idx
}

// accumulateLeaf computes the multipole data of a leaf from its
// particles.
func (t *Tree) accumulateLeaf(idx int) {
	nd := &t.Nodes[idx]
	switch t.discipline {
	case Vortex:
		var circ, wpos vec.Vec3
		abs := 0.0
		for i := nd.First; i < nd.First+nd.Count; i++ {
			p := &t.sys.Particles[t.Order[i]]
			circ = circ.Add(p.Alpha)
			w := p.Alpha.Norm()
			abs += w
			wpos = wpos.AddScaled(w, p.Pos)
		}
		nd.CircSum, nd.AbsCirc = circ, abs
		if abs > 0 {
			nd.Centroid = wpos.Scale(1 / abs)
		} else {
			nd.Centroid = nd.Center
		}
		var dip vec.Mat3
		for i := nd.First; i < nd.First+nd.Count; i++ {
			p := &t.sys.Particles[t.Order[i]]
			dip = dip.Add(vec.Outer(p.Pos.Sub(nd.Centroid), p.Alpha))
		}
		nd.Dipole = dip
	case Coulomb:
		var wpos vec.Vec3
		q, abs := 0.0, 0.0
		for i := nd.First; i < nd.First+nd.Count; i++ {
			p := &t.sys.Particles[t.Order[i]]
			q += p.Charge
			w := p.Charge
			if w < 0 {
				w = -w
			}
			abs += w
			wpos = wpos.AddScaled(w, p.Pos)
		}
		nd.Charge, nd.AbsCharge = q, abs
		if abs > 0 {
			nd.Centroid = wpos.Scale(1 / abs)
		} else {
			nd.Centroid = nd.Center
		}
		var dq vec.Vec3
		var quad vec.Mat3
		for i := nd.First; i < nd.First+nd.Count; i++ {
			p := &t.sys.Particles[t.Order[i]]
			d := p.Pos.Sub(nd.Centroid)
			dq = dq.AddScaled(p.Charge, d)
			d2 := d.Norm2()
			o := vec.Outer(d, d).Scale(3 * p.Charge)
			o[0][0] -= p.Charge * d2
			o[1][1] -= p.Charge * d2
			o[2][2] -= p.Charge * d2
			quad = quad.Add(o)
		}
		nd.DipoleQ, nd.QuadQ = dq, quad
	}
}

// accumulateInternal merges the children's multipole data upward using
// the standard shift formulas.
func (t *Tree) accumulateInternal(idx int) {
	nd := &t.Nodes[idx]
	// Fixed-size backing instead of make: this runs once per internal
	// node per build, on the steady-state Eval path.
	var kids [8]*Node
	nk := 0
	for _, ci := range nd.Children {
		if ci >= 0 {
			kids[nk] = &t.Nodes[ci]
			nk++
		}
	}
	switch t.discipline {
	case Vortex:
		MergeVortex(nd, kids[:nk])
	case Coulomb:
		MergeCoulomb(nd, kids[:nk])
	}
}

// MergeVortex fills dst's vortex multipole data from its children's
// (the standard moment shift formulas). dst.Center must be set as the
// centroid fallback.
func MergeVortex(dst *Node, children []*Node) {
	var circ, wpos vec.Vec3
	abs := 0.0
	for _, c := range children {
		circ = circ.Add(c.CircSum)
		abs += c.AbsCirc
		wpos = wpos.AddScaled(c.AbsCirc, c.Centroid)
	}
	dst.CircSum, dst.AbsCirc = circ, abs
	if abs > 0 {
		dst.Centroid = wpos.Scale(1 / abs)
	} else {
		dst.Centroid = dst.Center
	}
	var dip vec.Mat3
	for _, c := range children {
		// Shift: Σ(x−C)⊗α = Σ(x−c_child)⊗α + (c_child−C)⊗M0_child
		dip = dip.Add(c.Dipole).Add(vec.Outer(c.Centroid.Sub(dst.Centroid), c.CircSum))
	}
	dst.Dipole = dip
}

// MergeCoulomb fills dst's Coulomb multipole data from its children's.
func MergeCoulomb(dst *Node, children []*Node) {
	var wpos vec.Vec3
	q, abs := 0.0, 0.0
	for _, c := range children {
		q += c.Charge
		abs += c.AbsCharge
		wpos = wpos.AddScaled(c.AbsCharge, c.Centroid)
	}
	dst.Charge, dst.AbsCharge = q, abs
	if abs > 0 {
		dst.Centroid = wpos.Scale(1 / abs)
	} else {
		dst.Centroid = dst.Center
	}
	var dq vec.Vec3
	var quad vec.Mat3
	for _, c := range children {
		s := c.Centroid.Sub(dst.Centroid) // child centroid offset
		dq = dq.Add(c.DipoleQ).Add(s.Scale(c.Charge))
		// Quadrupole shift: Q' = Q + 3(s⊗d + d⊗s) − 2(s·d)I
		//                     + q(3 s⊗s − |s|² I)
		sd := s.Dot(c.DipoleQ)
		sh := vec.Outer(s, c.DipoleQ).Add(vec.Outer(c.DipoleQ, s)).Scale(3)
		sh[0][0] -= 2 * sd
		sh[1][1] -= 2 * sd
		sh[2][2] -= 2 * sd
		qq := vec.Outer(s, s).Scale(3 * c.Charge)
		s2 := s.Norm2()
		qq[0][0] -= c.Charge * s2
		qq[1][1] -= c.Charge * s2
		qq[2][2] -= c.Charge * s2
		quad = quad.Add(c.QuadQ).Add(sh).Add(qq)
	}
	dst.DipoleQ, dst.QuadQ = dq, quad
}

// NNodes returns the number of nodes in the tree.
func (t *Tree) NNodes() int { return len(t.Nodes) }

// Check validates structural invariants (particle ranges partition the
// whole set, children cover their parents, moments are consistent) and
// returns an error describing the first violation.
func (t *Tree) Check() error {
	var walk func(idx int) (int, error)
	walk = func(idx int) (int, error) {
		nd := &t.Nodes[idx]
		if nd.Leaf {
			return nd.Count, nil
		}
		total := 0
		pos := nd.First
		for _, ci := range nd.Children {
			if ci < 0 {
				continue
			}
			c := &t.Nodes[ci]
			if c.First != pos {
				return 0, fmt.Errorf("tree: child range starts at %d, want %d", c.First, pos)
			}
			if c.Level != nd.Level+1 {
				return 0, fmt.Errorf("tree: child level %d under level %d", c.Level, nd.Level)
			}
			cnt, err := walk(int(ci))
			if err != nil {
				return 0, err
			}
			if cnt != c.Count {
				return 0, fmt.Errorf("tree: node count %d, subtree holds %d", c.Count, cnt)
			}
			pos += c.Count
			total += c.Count
		}
		if total != nd.Count {
			return 0, fmt.Errorf("tree: internal node count %d != children total %d", nd.Count, total)
		}
		return total, nil
	}
	n, err := walk(t.Root)
	if err != nil {
		return err
	}
	if n != t.sys.N() {
		return fmt.Errorf("tree: root covers %d particles, system has %d", n, t.sys.N())
	}
	return nil
}

// PKey returns the placeholder key of a node.
func (n *Node) PKey() uint64 { return PlaceholderKey(n.Prefix, n.Level) }

// FindCell descends from the root along the digits of the placeholder
// key and returns the matching node index, or -1 when the tree has no
// such cell.
func (t *Tree) FindCell(pkey uint64) int {
	level := PKeyLevel(pkey)
	idx := int32(t.Root)
	for l := 0; l < level; l++ {
		digit := int(pkey >> (3 * (level - 1 - l)) & 7)
		nd := &t.Nodes[idx]
		if nd.Leaf {
			return -1
		}
		idx = nd.Children[digit]
		if idx < 0 {
			return -1
		}
	}
	return int(idx)
}

// Particle returns the original-slice particle of sorted position i.
func (t *Tree) Particle(i int) *particle.Particle {
	return &t.sys.Particles[t.Order[i]]
}
