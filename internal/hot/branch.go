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
			a.prefetch[r], n = rt.prefetchWalk(a.prefetch[r], int(idx), blo, bhi)
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

// graft turns the local tree into the locally essential tree, in place
// in the arena: every other rank's branch cells and the shared cells
// above all branches are appended to its nodes and the root moves up to
// the global root, then the prefetched cells are installed below the
// remote branches (installPrefetch). Order and the local lanes are
// untouched, so the tree still names its targets by local index and
// tree.Solver evaluates it like any other tree. A remote cell keeps no
// children until a reply installs them; opening one that none did is
// the tree's panic, which traverse reports as unresolvedCell.
//
//lint:hotpath the graft: once per evaluation over every branch and prefetched cell
func (rt *evalRT) graft(allBranches, prefetched [][]byte) {
	t, a := rt.ltree, rt.a
	rt.base = len(t.Nodes)
	a.owner = a.owner[:0]
	a.tops = a.tops[:0]
	for owner, raw := range allBranches {
		if owner == rt.me {
			a.tops = append(a.tops, a.branches...)
			continue
		}
		for off := 0; off+cellRecBytes <= len(raw); off += cellRecBytes {
			idx := rt.addCell(raw[off:], owner)
			t.Nodes[idx].Leaf = false // a leaf branch, too, awaits its reply
			a.tops = append(a.tops, idx)
		}
	}
	t.Root = int(rt.addTop(0, 0, a.tops))
	rt.installPrefetch(prefetched)
}

// addCell appends the remote cell of record rec, owned by owner, to the
// tree, with no children.
func (rt *evalRT) addCell(rec []byte, owner int) int32 {
	t := rt.ltree
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, tree.Node{})
	decodeCell(&t.Nodes[idx], rec, rt.disc, rt.dom)
	rt.a.owner = append(rt.a.owner, int32(owner))
	return idx
}

// addTop returns the node of cell (level, prefix), which holds the
// branch cells br (graft nodes in key order): the branch itself when br
// is that one cell, else a shared cell appended above the nodes addTop
// returns for its occupied octants, with its moments merged from
// theirs in digit order — so the root carries the global moments on
// every rank.
func (rt *evalRT) addTop(level int, prefix uint64, br []int32) int32 {
	t := rt.ltree
	if t.Nodes[br[0]].Level == level {
		if len(br) > 1 {
			panic("hot: branch cells overlap")
		}
		return br[0]
	}
	var kids [8]int32
	count, lo := 0, 0
	shift := uint(3 * (tree.KeyBits - 1 - level))
	for d := range kids {
		hi := lo
		for hi < len(br) && tree.ChildDigit(t.Nodes[br[hi]].Prefix, level) == d {
			hi++
		}
		kids[d] = -1
		if hi > lo {
			kids[d] = rt.addTop(level+1, prefix|uint64(d)<<shift, br[lo:hi])
			count += t.Nodes[kids[d]].Count
		}
		lo = hi
	}
	if lo != len(br) {
		panic("hot: branch cells out of key order")
	}
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, tree.Node{
		Level: level, Prefix: prefix, Count: count, Children: kids,
		Size:   rt.dom.Size / float64(uint64(1)<<level),
		Center: rt.dom.CellCenter(prefix, level),
	})
	rt.a.owner = append(rt.a.owner, -1)
	var kn [8]*tree.Node
	k := 0
	for _, c := range kids {
		if c >= 0 {
			kn[k] = &t.Nodes[c]
			k++
		}
	}
	switch rt.disc {
	case tree.Vortex:
		tree.MergeVortex(&t.Nodes[idx], kn[:k])
	case tree.Coulomb:
		tree.MergeCoulomb(&t.Nodes[idx], kn[:k])
	}
	return idx
}

// installPrefetch decodes the blocks the other ranks pruned for this
// one, resolving every remote cell the traversal may open. It runs
// after addTop, so the shared moments are merged over the branch cells
// alone, and before any worker goroutine exists: once it returns the
// tree is read-only.
func (rt *evalRT) installPrefetch(blocks [][]byte) {
	t := rt.ltree
	installed := 0
	for owner, raw := range blocks {
		for off := 0; off+8 <= len(raw); {
			n := int(binary.LittleEndian.Uint64(raw[off:]))
			off += 8
			rec := raw[off : off+n]
			off += n
			idx := int32(t.FindCell(binary.LittleEndian.Uint64(rec)))
			if int(idx) < rt.base || rt.resolved(idx) {
				continue
			}
			rt.applyReply(idx, owner, rec)
			installed++
		}
	}
	rt.stats.Prefetched += int64(installed)
	if rt.s.meter != nil && installed > 0 {
		rt.comm.Advance(rt.s.meter.Branches(installed))
	}
}

// resolved reports whether remote node idx has its particles (a leaf)
// or its children installed.
func (rt *evalRT) resolved(idx int32) bool {
	nd := &rt.ltree.Nodes[idx]
	if nd.Leaf {
		return true
	}
	for _, c := range nd.Children {
		if c >= 0 {
			return true
		}
	}
	return false
}

// applyReply installs what a reply record delivers for remote node idx
// of owner: its children, with the inline particles of the leaf ones,
// or, for a leaf reply, its own particles.
func (rt *evalRT) applyReply(idx int32, owner int, data []byte) {
	t := rt.ltree
	nchild := int(binary.LittleEndian.Uint64(data[8:]))
	off := 16
	if nchild == 0 {
		cnt := int(binary.LittleEndian.Uint64(data[off:]))
		rt.resolveLeaf(idx, data[off+8:], cnt)
		return
	}
	if nchild > 8 {
		panic("hot: reply with more than eight children")
	}
	first := int32(len(t.Nodes))
	for i := 0; i < nchild; i++ {
		c := rt.addCell(data[off:], owner)
		t.Nodes[idx].Children[tree.ChildDigit(t.Nodes[c].Prefix, t.Nodes[idx].Level)] = c
		off += cellRecBytes
	}
	for c := first; c < first+int32(nchild); c++ {
		if nd := &t.Nodes[c]; nd.Leaf {
			off += rt.resolveLeaf(c, data[off:], nd.Count)
		}
	}
}

// resolveLeaf appends cnt particle records from data to the tree's
// lanes, after the local particles, as the particles of remote leaf
// idx, and returns the bytes consumed.
func (rt *evalRT) resolveLeaf(idx int32, data []byte, cnt int) int {
	l := rt.ltree.Lanes
	lo := len(l.X)
	for i := 0; i < cnt; i++ {
		appendParticleLanes(l, data[i*particleRecBytes:], rt.disc)
	}
	nd := &rt.ltree.Nodes[idx]
	nd.Leaf, nd.First = true, lo
	return cnt * particleRecBytes
}
