package hot

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/tree"
	"repro/internal/vec"
)

// BranchMode selects the branch-node exchange algorithm of phase 4.
type BranchMode int

const (
	// BranchRing is the reference exchange: the ring allgather of the
	// packed branch lists (P−1 rounds, P−1 chained latencies), followed
	// by on-demand remote-cell fetches during the traversal.
	BranchRing BranchMode = iota
	// BranchBatched is the optimized exchange of DESIGN.md §15: the
	// branch lists travel in ⌈log2 P⌉ batched Bruck rounds, each rank
	// prunes its local tree against every receiver's MAC acceptance
	// region and ships the surviving cells ahead of time in one
	// Alltoall, and those prefetch walks overlap the first exchange
	// round in flight. Bitwise identical results to BranchRing: the
	// shipped records use the exact fetch-reply encoding, the traversal
	// is untouched, and the on-demand fetch path remains as a fallback
	// for cells the conservative pruning did not ship.
	BranchBatched
)

// ParseBranchMode maps the -branch flag spelling to a BranchMode.
func ParseBranchMode(s string) (BranchMode, error) {
	switch strings.ToLower(s) {
	case "", "ring":
		return BranchRing, nil
	case "batched":
		return BranchBatched, nil
	}
	return 0, fmt.Errorf(`hot: unknown branch mode %q (want "ring" or "batched")`, s)
}

// String returns the flag spelling of the mode.
func (m BranchMode) String() string {
	if m == BranchBatched {
		return "batched"
	}
	return "ring"
}

// boxRecBytes is the wire size of one rank's bounding box (6 float64).
const boxRecBytes = 48

// appendBox appends a rank's post-redistribution particle bounding
// box. An empty rank encodes the inverted infinite box (lo > hi),
// which receivers use to skip it.
func appendBox(dst []byte, lo, hi vec.Vec3) []byte {
	for _, v := range [6]float64{lo.X, lo.Y, lo.Z, hi.X, hi.Y, hi.Z} {
		dst = appendF(dst, v)
	}
	return dst
}

// decodeBox is the inverse of appendBox.
func decodeBox(b []byte) (lo, hi vec.Vec3) {
	b = b[:boxRecBytes]
	return vec.V3(getF(b[0:]), getF(b[8:]), getF(b[16:])), vec.V3(getF(b[24:]), getF(b[32:]), getF(b[40:]))
}

// boxDistSq returns the squared distance from point c to the axis-
// aligned box [lo,hi] (zero when c lies inside). It is the minimum of
// |x−c|² over the box, so a MAC that accepts a cell at this distance
// accepts it for every target in the box — the conservative
// receiver-side acceptance region of the prefetch pruning.
func boxDistSq(lo, hi, c vec.Vec3) float64 {
	ax := func(lo, hi, c float64) float64 {
		if c < lo {
			return lo - c
		}
		if c > hi {
			return c - hi
		}
		return 0
	}
	dx := ax(lo.X, hi.X, c.X)
	dy := ax(lo.Y, hi.Y, c.Y)
	dz := ax(lo.Z, hi.Z, c.Z)
	return dx*dx + dy*dy + dz*dz
}

// batchedBranchExchange is the BranchBatched implementation of phase 4:
// it gathers the per-rank bounding boxes, allgathers the packed branch
// lists with the Bruck algorithm while the prefetch walks run in the
// overlap window, and ships every receiver its pruned essential subtree
// in one Alltoall. The resulting reply payloads are stashed on rt and
// installed by installPrefetch after the shared top tree exists.
func (rt *evalRT) batchedBranchExchange() [][]byte {
	s, a, comm := rt.s, rt.a, rt.comm
	p := comm.Size()

	// Every rank's post-redistribution bounding box: 48 bytes per rank,
	// batched into ⌈log2 P⌉ rounds.
	lo, hi := rt.local.Bounds()
	if rt.local.N() == 0 {
		lo = vec.V3(math.Inf(1), math.Inf(1), math.Inf(1))
		hi = vec.V3(math.Inf(-1), math.Inf(-1), math.Inf(-1))
	}
	a.wire = appendBox(a.wire[:0], lo, hi)
	boxes := comm.AllgatherBatched(a.wire)

	// Branch allgather with the prefetch walks overlapped: while the
	// first Bruck round's messages are in flight, walk the local tree
	// once per receiver, prune every subtree whose root the receiver's
	// box already accepts under the MAC, and pack the rest as fetch
	// reply records. The walk is local compute, so the virtual clock
	// advances during the round-0 latency — genuine overlap.
	overlap := func() {
		if rt.ltree == nil {
			return
		}
		emitted := 0
		for r := 0; r < p; r++ {
			if r == rt.me {
				continue
			}
			blo, bhi := decodeBox(boxes[r])
			if blo.X > bhi.X { // receiver owns no particles: no traversal
				continue
			}
			for _, idx := range a.branches {
				var n int
				a.prefetch[r], n = rt.prefetchWalk(a.prefetch[r], idx, blo, bhi)
				emitted += n
			}
		}
		if s.meter != nil && emitted > 0 {
			comm.Advance(s.meter.Branches(emitted))
		}
	}
	all := comm.AllgatherBatchedOverlap(a.packed, overlap)

	// One batched message per receiver with its pruned subtree.
	rt.prefetchReplies = comm.Alltoall(a.prefetch)
	return all
}

// prefetchWalk appends to out a length-framed fetch-reply record for
// every cell under local cell idx that targets inside the receiver box
// [blo,bhi] may open under the MAC, in DFS pre-order (parents before
// children, so each record's cell exists on the receiver when it
// installs). A cell the box accepts is pruned with its whole subtree:
// boxDistSq is a lower bound on every target distance and the MAC is
// monotone in distance, so every receiver target accepts it as a
// single interaction partner. Leaf children need no records of their
// own — the parent record inlines their particles, exactly like a
// served fetch. Returns the extended block and the number of records
// emitted.
func (rt *evalRT) prefetchWalk(out []byte, idx int, blo, bhi vec.Vec3) ([]byte, int) {
	theta := rt.s.cfg.Theta
	t := rt.ltree
	nd := &t.Nodes[idx]
	if nd.Count == 0 {
		return out, 0
	}
	if !nd.Leaf && tree.MACSq(theta*theta, nd.Size*nd.Size, boxDistSq(blo, bhi, nd.Centroid)) {
		return out, 0 // accepted for every box target: subtree pruned
	}
	// Frame: the record's byte length, patched in once it is known.
	frame := len(out)
	out = binary.LittleEndian.AppendUint64(out, 0)
	out = rt.appendCellReply(out, idx)
	binary.LittleEndian.PutUint64(out[frame:], uint64(len(out)-frame-8))
	emitted := 1
	if nd.Leaf {
		return out, emitted
	}
	for _, ci := range nd.Children {
		if ci >= 0 && !t.Nodes[ci].Leaf {
			var n int
			out, n = rt.prefetchWalk(out, int(ci), blo, bhi)
			emitted += n
		}
	}
	return out, emitted
}

// installPrefetch decodes the stashed prefetch payloads through the
// regular fetch-reply path, resolving remote cells before the
// traversal starts. Runs after buildTop so the cell table the top-tree
// construction sees is identical to ring mode (bitwise-identical
// shared moments), and before any worker goroutine exists (no
// locking). Cells already resolved are skipped.
func (rt *evalRT) installPrefetch() {
	if rt.prefetchReplies == nil {
		return
	}
	installed := 0
	for _, raw := range rt.prefetchReplies {
		for off := 0; off+8 <= len(raw); {
			n := int(binary.LittleEndian.Uint64(raw[off:]))
			off += 8
			rec := raw[off : off+n]
			off += n
			g := rt.a.cells.get(binary.LittleEndian.Uint64(rec))
			if g == nil || g.resolved() {
				continue
			}
			rt.applyReply(g, rec)
			installed++
		}
	}
	rt.prefetchReplies = nil
	rt.stats.Prefetched += int64(installed)
	if rt.s.meter != nil && installed > 0 {
		rt.comm.Advance(rt.s.meter.Branches(installed))
	}
}
