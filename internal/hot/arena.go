package hot

import (
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// evalArena owns every allocation a force evaluation makes on this
// rank. A Solver holds exactly one; each Eval/Coulomb resets it and
// reuses the capacity the previous evaluation left behind, so a rank
// in steady state (every SDC sweep after the first) allocates nothing:
// package mpi lends the blocks, reduces in place and recycles its
// message buffers.
//
// Lifetime rule: everything an evaluation builds — the received local
// system, the locally essential tree grafted onto the local tree, and
// the output arrays — is valid until the solver's next evaluation and
// not a moment longer. Nothing in here is handed to the caller;
// results leave through the caller's own slices.
//
// The route, prefetch and result blocks (mpi.Alltoall), and the wire
// and packed branch blocks (the allgathers), are lent to other ranks
// under mpi's lending rule: reset only truncates them, and an
// evaluation writes them after its first allreduces. The rank's own
// share is neither lent nor encoded: its route and result blocks stay
// empty, the own range of sorted positions is copied into the local
// system and its results are written by index. The route and result
// blocks, the local system with its origin indices and the packed
// branch list are sized from counts the evaluation already holds (an
// owner's range, a source's run, the received block lengths, the
// branch count) before they are filled, not grown by append. The
// headers a collective returns are the communicator's until its next
// call of that collective, so what must outlive one is copied in here
// (the peer boxes).
type evalArena struct {
	// Decomposition: the operands of the bounding-box and particle
	// count reductions; Morton keys in sorted order, their sort
	// permutation and the balance weights of the caller's particles;
	// splitter sampling; the owners' ranges of sorted positions and
	// one route block per remote owner (the own block stays empty);
	// and the system this rank owns after the exchange, with each
	// particle's index on its origin rank. The local system is the
	// sources' runs in rank order: source r's particles are positions
	// [runs[r], runs[r+1]).
	lo, hi     [3]float64
	count      [1]int64
	keys       []uint64
	order      []int
	weights    []float64
	samples    []uint64
	samplePool []uint64
	splitters  []uint64
	bounds     []int
	wire       []byte
	route      [][]byte
	local      particle.System
	originIdx  []int
	runs       []int

	// The local tree over a.local, rebuilt in place (guard retries
	// included), then grafted into the locally essential tree: its
	// nodes and lanes grow by the remote and shared cells and the
	// remote leaves' particles. Its radix scratch also sorts keys.
	tree tree.Arena

	// Branch exchange: this rank's branch nodes and their wire form,
	// the per-receiver prefetch blocks, every rank's branch cells as
	// graft nodes in key order, and the owning rank of every grafted
	// node (−1 for a shared cell).
	branches []int32
	packed   []byte
	boxes    [][2]vec.Vec3
	prefetch [][]byte
	tops     []int32
	owner    []int32

	// Traversal: the per-target outputs in local order.
	outVel, outStr, outE []vec.Vec3
	outPot, workPer      []float64

	// Result routing: one block per remote source rank (the own run is
	// written by index, and its block stays empty), and the operands of
	// the imbalance reductions, which reduce in place: the sum's word,
	// then the max's.
	results [][]byte
	work    [2]float64
}

// reset empties the arena for an evaluation on p ranks, keeping all
// capacity.
func (a *evalArena) reset(p int) {
	a.route = resetBlocks(a.route, p)
	a.prefetch = resetBlocks(a.prefetch, p)
	a.results = resetBlocks(a.results, p)
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
