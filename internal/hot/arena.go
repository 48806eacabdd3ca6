package hot

import (
	"math/bits"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// evalArena owns every allocation a force evaluation makes on this
// rank. A Solver holds exactly one; each Eval/Coulomb resets it and
// reuses the capacity the previous evaluation left behind, so a rank
// in steady state (every SDC sweep after the first) allocates only
// what package mpi does for its collectives.
//
// Lifetime rule: everything an evaluation builds — the received local
// system, the local tree, the locally essential tree (cells, child
// keys, remote-leaf lanes) and the output arrays — is valid until the
// solver's next evaluation and not a moment longer. Nothing in here is
// handed to the caller; results leave through the caller's own slices.
//
// The route, prefetch and result blocks are lent to other ranks by
// mpi.Alltoall (see its lending rule): reset only truncates them, and
// an evaluation writes them after its first allreduces.
type evalArena struct {
	// Decomposition: Morton keys, their sort permutation and the
	// balance weights of the caller's particles; splitter sampling;
	// one route block per destination rank; and the system this rank
	// owns after the exchange, with each particle's origin labels.
	keys       []uint64
	order      []int
	weights    []float64
	samples    []uint64
	samplePool []uint64
	splitters  []uint64
	wire       []byte
	route      [][]byte
	local      particle.System
	originRank []int
	originIdx  []int

	// Local tree over a.local, rebuilt in place (guard retries included).
	tree   tree.Arena
	groups []int32

	// Branch exchange: this rank's branch nodes and their wire form,
	// the per-receiver prefetch blocks, and the (parent, child) edges
	// of the shared top.
	branches []int
	packed   []byte
	prefetch [][]byte
	edges    []topEdge

	// The locally essential tree: every global cell this rank knows —
	// shared top, branches of all ranks, prefetched remote cells — in
	// one table; child keys of resolved cells as ranges of
	// one slab; particles of resolved remote leaves as ranges of one
	// set of SoA lanes.
	cells     cellTable
	childKeys []uint64
	lanes     particle.SoA

	// Traversal: the pair kernel at this evaluation's σ, per-target
	// outputs in local order and one scratch per worker.
	vb                   kernel.VortexBatch
	outVel, outStr, outE []vec.Vec3
	outPot, workPer      []float64
	scratch              []travScratch

	// Result routing: one block per origin rank, and the one-word
	// operand of the imbalance reductions.
	results [][]byte
	work    [1]float64
}

// reset empties the arena for an evaluation on p ranks with the given
// worker count, keeping all capacity.
func (a *evalArena) reset(p, workers int) {
	a.route = resetBlocks(a.route, p)
	a.prefetch = resetBlocks(a.prefetch, p)
	a.results = resetBlocks(a.results, p)
	a.local.Particles = a.local.Particles[:0]
	a.originRank = a.originRank[:0]
	a.originIdx = a.originIdx[:0]
	a.cells.reset()
	a.childKeys = a.childKeys[:0]
	l := &a.lanes
	l.X, l.Y, l.Z = l.X[:0], l.Y[:0], l.Z[:0]
	l.AX, l.AY, l.AZ = l.AX[:0], l.AY[:0], l.AZ[:0]
	l.Q = l.Q[:0]
	if len(a.scratch) != workers {
		a.scratch = make([]travScratch, workers)
	}
}

// resetBlocks returns blocks with p empty entries, each keeping the
// capacity it had (p is the communicator size, fixed for a solver).
func resetBlocks(blocks [][]byte, p int) [][]byte {
	if len(blocks) != p {
		return make([][]byte, p)
	}
	for i := range blocks {
		blocks[i] = blocks[i][:0]
	}
	return blocks
}

// grow returns s resized to length n, reusing its capacity; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// travScratch is one traversal worker's reusable state: the
// interaction list of the leaf group in hand and the pkey stack shared
// by the group walk and the per-particle walks (never live together).
type travScratch struct {
	hl    hotList
	stack []uint64
}

// gcell is a node of the rank's view of the global tree: shared top
// cells (owner −1), branch cells, and prefetched remote cells. A cell
// never moves once inserted, so pointers to it stay valid while the
// table grows.
type gcell struct {
	nd    tree.Node
	pkey  uint64
	owner int
	// Known children: childKeys[childLo : childLo+childN] of the arena
	// (childLo < 0 = unresolved).
	childLo, childN int32
	// Particles of a remote leaf: lanes [partLo, partLo+partN) of the
	// arena (partLo < 0 = unresolved).
	partLo, partN int32
}

// resolved reports whether a remote cell's payload has been installed.
func (g *gcell) resolved() bool {
	if g.nd.Leaf {
		return g.partLo >= 0
	}
	return g.childLo >= 0
}

// topEdge is one (parent, child) link of the shared top tree.
type topEdge struct{ parent, child uint64 }

// cellTable is the hashed oct-tree of the evaluation: an open-addressed
// pkey → index table (linear probing, key 0 = empty — placeholder keys
// carry a leading 1 bit and are never zero) over a slab of gcells. The
// slab is a list of chunks of doubling size, so growing it never moves
// a cell; the chunks and the slot array are kept across evaluations.
type cellTable struct {
	slots  []cellSlot
	shift  uint // 64 − log2(len(slots))
	chunks [][]gcell
	n      int
}

type cellSlot struct {
	key uint64
	idx int32
}

const (
	cellChunk0    = 32 // cells in the first slab chunk; chunk k holds cellChunk0<<k
	cellSlotsInit = 64
)

func (t *cellTable) reset() {
	clear(t.slots)
	t.n = 0
}

// chunkOf returns the slab chunk holding cell i and i's offset in it.
func chunkOf(i int) (k, off int) {
	k = bits.Len(uint(i)/cellChunk0+1) - 1
	return k, i - cellChunk0*(1<<k-1)
}

// at returns cell i of the slab (insertion order).
func (t *cellTable) at(i int) *gcell {
	k, off := chunkOf(i)
	return &t.chunks[k][off]
}

func (t *cellTable) slotOf(pk uint64) int {
	return int((pk * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the cell with the given placeholder key, or nil.
func (t *cellTable) get(pk uint64) *gcell {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.slotOf(pk); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == pk {
			return t.at(int(s.idx))
		}
		if s.key == 0 {
			return nil
		}
	}
}

// insert returns the cell stored under pk, claiming the next slab cell
// when the key is new. The caller overwrites the cell completely: a
// claimed cell still holds whatever an earlier evaluation left there.
func (t *cellTable) insert(pk uint64) *gcell {
	if 2*(t.n+1) > len(t.slots) {
		t.growSlots()
	}
	mask := len(t.slots) - 1
	i := t.slotOf(pk)
	for ; t.slots[i].key != 0; i = (i + 1) & mask {
		if t.slots[i].key == pk {
			return t.at(int(t.slots[i].idx))
		}
	}
	k, off := chunkOf(t.n)
	if k == len(t.chunks) {
		t.chunks = append(t.chunks, make([]gcell, cellChunk0<<k))
	}
	t.slots[i] = cellSlot{key: pk, idx: int32(t.n)}
	t.n++
	return &t.chunks[k][off]
}

// growSlots doubles the slot array and rehashes the live keys.
func (t *cellTable) growSlots() {
	old := t.slots
	size := cellSlotsInit
	if len(old) > 0 {
		size = 2 * len(old)
	}
	t.slots = make([]cellSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.slotOf(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
