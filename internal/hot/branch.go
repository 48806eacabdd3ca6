package hot

import (
	"encoding/binary"

	"repro/internal/tree"
	"repro/internal/vec"
)

// BranchMode selects the allgather of phase 4. Everything else about
// the branch exchange — the rank boxes, the MAC-pruned prefetch walks
// over the local tree, the one Alltoall that ships each receiver its
// essential cells — is the same in both modes, and so are the results,
// bit for bit.
type BranchMode int

const (
	// BranchBatched carries the rank boxes and the branch lists in
	// ⌈log2 P⌉ batched Bruck rounds, with the prefetch walks in the
	// overlap window of the branch allgather's first round (DESIGN.md
	// §15). The default.
	BranchBatched BranchMode = iota
	// BranchRing carries them by ring allgather: P−1 rounds, P−1
	// chained latencies — the cost structure of the paper's Fig. 5,
	// which the scaling study compares against.
	BranchRing
)

// String returns the name of the mode in experiment tables and records.
func (m BranchMode) String() string {
	if m == BranchRing {
		return "ring"
	}
	return "batched"
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

// prefetchWalks walks the local tree once per receiver, prunes every
// subtree whose root the receiver's box already accepts under the MAC,
// and packs the rest as reply records into the receiver's prefetch
// block. The walks are local compute: inside the Bruck overlap window
// the virtual clock advances during the round-0 latency — genuine
// overlap.
func (rt *evalRT) prefetchWalks(boxes [][]byte) {
	s, a := rt.s, rt.a
	if rt.ltree == nil {
		return
	}
	emitted := 0
	for r := range boxes {
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
		rt.comm.Advance(s.meter.Branches(emitted))
	}
}

// prefetchWalk appends to out a length-framed reply record for
// every cell under local cell idx that targets inside the receiver box
// [blo,bhi] may open under the MAC, in DFS pre-order (parents before
// children, so each record's cell exists on the receiver when it
// installs). A cell the box accepts is pruned with its whole subtree:
// boxDistSq is a lower bound on every target distance and the MAC is
// monotone in distance, so every receiver target accepts it as a
// single interaction partner. Leaf children need no records of their
// own — the parent record inlines their particles. Returns the
// extended block and the number of records emitted.
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

// installPrefetch decodes the blocks the other ranks pruned for this
// one, resolving every remote cell the traversal may open. Runs after
// buildTop, so the shared moments are merged over the branch cells
// alone, and before any worker goroutine exists: once it returns the
// cell table, the child-key slab and the lanes are read-only.
func (rt *evalRT) installPrefetch(blocks [][]byte) {
	installed := 0
	for _, raw := range blocks {
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
	rt.stats.Prefetched += int64(installed)
	if rt.s.meter != nil && installed > 0 {
		rt.comm.Advance(rt.s.meter.Branches(installed))
	}
}
