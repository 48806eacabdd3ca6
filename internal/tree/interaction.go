package tree

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/vec"
)

// This file implements the two-phase interaction-list evaluator of the
// Coulomb discipline (the PEPC-style amortized traversal, cf.
// Dubinski's parallel tree code): instead of walking the tree once per
// particle, one MAC-driven walk per *leaf group* classifies every
// encountered cell for the whole group at once and emits a flat
// interaction list, which is then evaluated per particle with no tree
// navigation. The vortex discipline has no lists: its targets share an
// instruction four at a time, so it walks once per tile with an exact
// MAC decision per lane instead (tileWalk, traverse.go).
//
// The group-level classification is conservative:
//
//   - groupAccept: the cell passes the MAC for every possible target
//     in the group box → one far-field (particle–cell) item.
//   - groupOpen: the cell fails the MAC for every possible target →
//     opened exactly as the per-particle walk would, children pushed.
//   - groupAmbiguous: the decision differs across the group box → the
//     item carries the cell and the evaluator falls back to the exact
//     per-particle walk for that subtree.
//
// Because ambiguous cells fall back to the *same* per-particle
// predicate and stack discipline as the recursive traversal, and
// because the group walk pushes children in the same order, the list
// evaluation sums exactly the same floating-point terms in exactly the
// same order as the recursive traversal — the two are bitwise equal.

// TraversalMode selects how Solver (and through it package hot)
// evaluates a target group.
type TraversalMode int

const (
	// TraversalList is the default: vortex targets are walked four to
	// a tile with a MAC decision per lane, and Coulomb groups by one
	// MAC walk per group emitting near/far interaction lists.
	TraversalList TraversalMode = iota
	// TraversalRecursive is the classic per-particle stack traversal —
	// the oracle the tile walk and the list evaluator are held bitwise
	// equal to.
	TraversalRecursive
)

func (m TraversalMode) String() string {
	if m == TraversalRecursive {
		return "recursive"
	}
	return "list"
}

// ParseTraversal parses a traversal mode name ("list" or "recursive").
func ParseTraversal(s string) (TraversalMode, error) {
	switch s {
	case "", "list":
		return TraversalList, nil
	case "recursive":
		return TraversalRecursive, nil
	default:
		return TraversalList, fmt.Errorf("unknown traversal mode %q (want list or recursive)", s)
	}
}

// groupClass is the outcome of the conservative group-level MAC test.
type groupClass int

const (
	// groupAccept: the MAC holds for every point of the group box.
	groupAccept groupClass = iota
	// groupOpen: the MAC fails for every point of the group box.
	groupOpen
	// groupAmbiguous: the MAC outcome varies across the group box.
	groupAmbiguous
)

// classifyMargin pushes marginal cells into the ambiguous (exact)
// path, so floating-point rounding in the group bounds can never
// produce a group decision that contradicts the per-particle
// predicate. ~8 ulps would suffice; 1e-9 is comfortably conservative
// and costs only a slightly larger ambiguous fringe.
const classifyMargin = 1e-9

// boxPointDist2 returns lower and upper bounds on the squared distance
// from any point of the axis-aligned box (center gc, per-axis
// half-extents ge) to the point p.
func boxPointDist2(gc, ge vec.Vec3, p vec.Vec3) (dmin2, dmax2 float64) {
	for _, ah := range [3][2]float64{
		{math.Abs(p.X - gc.X), ge.X},
		{math.Abs(p.Y - gc.Y), ge.Y},
		{math.Abs(p.Z - gc.Z), ge.Z},
	} {
		lo := ah[0] - ah[1]
		if lo < 0 {
			lo = 0
		}
		hi := ah[0] + ah[1]
		dmin2 += lo * lo
		dmax2 += hi * hi
	}
	return dmin2, dmax2
}

// classifyGroup performs the conservative group-level MAC test of cell
// nd against the group box (center gc, per-axis half-extents ge);
// theta2 is θ². Callers pass the tight bounding box of the group's
// particles (GroupBounds), which keeps the ambiguous fringe thin even
// when the enclosing cell is mostly empty.
func classifyGroup(theta2 float64, nd *Node, gc, ge vec.Vec3) groupClass {
	s2 := nd.Size * nd.Size
	dmin2, dmax2 := boxPointDist2(gc, ge, nd.Centroid)
	if dmin2 > 0 && s2 <= theta2*dmin2*(1-classifyMargin) {
		return groupAccept
	}
	if s2 > theta2*dmax2*(1+classifyMargin) {
		return groupOpen
	}
	return groupAmbiguous
}

// ItemKind tags one entry of an interaction list.
type ItemKind uint8

const (
	// ItemFar is a MAC-accepted cell: one multipole evaluation per
	// target.
	ItemFar ItemKind = iota
	// ItemNear is a leaf cell: direct particle–particle summation.
	ItemNear
	// ItemAmbiguous is a cell whose group-level MAC test was
	// inconclusive: the evaluator runs the exact per-particle walk on
	// its subtree.
	ItemAmbiguous
)

// ListItem is one interaction-list entry: a cell index plus how to
// evaluate it.
type ListItem struct {
	Kind ItemKind
	Node int32
}

// InteractionList is the output of one group walk: the items in
// evaluation order plus the number of cells the walk opened (each
// opened cell counts one MAC reject per target particle).
type InteractionList struct {
	Items []ListItem
	Opens int64
}

// Reset empties the list for reuse.
func (l *InteractionList) Reset() {
	l.Items = l.Items[:0]
	l.Opens = 0
}

// listPool recycles interaction lists across leaf groups; a group walk
// on a clustered distribution can emit hundreds of items and runs once
// per leaf, so per-walk allocations would dominate.
var listPool = sync.Pool{
	New: func() any { return &InteractionList{Items: make([]ListItem, 0, 256)} },
}

// GetInteractionList returns a cleared list from the pool.
func GetInteractionList() *InteractionList { return listPool.Get().(*InteractionList) }

// PutInteractionList returns a list to the pool.
func PutInteractionList(l *InteractionList) {
	l.Reset()
	listPool.Put(l)
}

// AppendInteractionList performs the group-level MAC walk of the
// subtree rooted at start for the group box (center gc, per-axis
// half-extents ge) and appends the resulting items to list. The walk
// uses the same stack discipline as the per-particle traversal
// (children pushed in order, popped last-first), so evaluating the
// items in list order reproduces the per-particle evaluation order
// exactly. The criterion is always Barnes-Hut; the MACKind parameter
// remains only because internal/bench passes it.
func (t *Tree) AppendInteractionList(list *InteractionList, _ MACKind, theta float64, start int32, gc, ge vec.Vec3) {
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
		if nd.Leaf {
			// The per-particle walk never MAC-accepts a leaf; direct
			// summation always.
			list.Items = append(list.Items, ListItem{Kind: ItemNear, Node: idx})
			continue
		}
		switch classifyGroup(theta2, nd, gc, ge) {
		case groupAccept:
			list.Items = append(list.Items, ListItem{Kind: ItemFar, Node: idx})
		case groupOpen:
			list.Opens++
			stack = open(stack, nd)
		default:
			list.Items = append(list.Items, ListItem{Kind: ItemAmbiguous, Node: idx})
		}
	}
	*sp = stack
	putStack(sp)
}

// GroupBounds returns the tight axis-aligned bounding box — center and
// per-axis half-extents — of the sorted particle range
// [first, first+count). Classifying against the tight box instead of
// the enclosing cell (which is mostly empty on clustered
// distributions) keeps the ambiguous fringe of the group walk thin.
// The center/extent rounding can place a boundary particle a few ulps
// outside the box; classifyMargin absorbs that.
func (t *Tree) GroupBounds(first, count int) (gc, ge vec.Vec3) {
	lo := t.Particle(first).Pos
	hi := lo
	for i := first + 1; i < first+count; i++ {
		p := t.Particle(i).Pos
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	gc = lo.Add(hi).Scale(0.5)
	ge = hi.Sub(lo).Scale(0.5)
	return gc, ge
}

// Groups returns the target groups of the two-phase traversal: the
// shallowest non-empty cells holding at most cap particles, in
// depth-first preorder. A group may be an ancestor of several leaves,
// so the list-build walk is amortized over up to cap targets even on a
// classical (LeafCap = 1) tree — the regime where per-particle walks
// are most expensive. Each group's particles are the contiguous range
// [First, First+Count) of t.Order. cap ≤ LeafCap degenerates to the
// non-empty leaves (every internal cell holds more than LeafCap
// particles).
func (t *Tree) Groups(cap int) []int32 {
	return t.AppendGroups(make([]int32, 0, 64), cap)
}

// AppendGroups is Groups appending into buf (pass buf[:0] to reuse the
// previous step's capacity — the solver's arena contract).
func (t *Tree) AppendGroups(buf []int32, cap int) []int32 {
	if cap < 1 {
		cap = 1
	}
	out := buf
	sp := getStack()
	stack := append(*sp, int32(t.Root))
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[idx]
		if nd.Count == 0 {
			continue
		}
		if nd.Leaf || nd.Count <= cap {
			out = append(out, idx)
			continue
		}
		for c := 7; c >= 0; c-- {
			if ci := nd.Children[c]; ci >= 0 {
				stack = append(stack, ci)
			}
		}
	}
	*sp = stack
	putStack(sp)
	return out
}
