package hot

// The two-phase (interaction-list) traversal of the distributed tree,
// mirroring internal/tree/interaction.go at the global level: one
// MAC-driven walk per local leaf group classifies every global cell
// conservatively, emitting
//
//   - far items (group-accepted remote/shared cells),
//   - near items (remote leaves, evaluated over their lane range),
//   - ambiguous items (resolved per particle by the exact vortexWalk/
//     coulombWalk, accumulating into the running result), and
//   - local segments (owner-local branch cells, delegated to the local
//     tree's list builder; evaluated into a sub-result that is then
//     added, exactly like the recursive path's VortexAtNode call).
//
// Conservative classification plus exact fallback keeps the list
// evaluation bitwise identical to the recursive traversal, and —
// because a group-opened cell is opened by *every* particle of the
// group — it reaches no remote cell the recursive traversal does not,
// so the same prefetch set serves both.

import (
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/tree"
	"repro/internal/vec"
)

type hotItemKind uint8

const (
	hFar hotItemKind = iota
	hNear
	hAmb
	hLocal
)

// hotItem is one entry of a global interaction list.
type hotItem struct {
	kind hotItemKind
	g    *gcell // global cell (hFar, hNear, hAmb); cells never move
	// Local segment (hLocal): the slice [segLo, segHi) of
	// hotList.llist.Items built for one owner-local branch cell, plus
	// the cells opened while building it.
	segLo, segHi int
	opens        int64
}

// hotList is the interaction list of one leaf group against the global
// tree. Each traversal worker owns one (travScratch) and reuses it
// from group to group and from evaluation to evaluation.
type hotList struct {
	items []hotItem
	llist tree.InteractionList // backing storage for hLocal segments
	opens int64                // group-opened global cells
}

func (hl *hotList) reset() {
	hl.items = hl.items[:0]
	hl.llist.Reset()
	hl.opens = 0
}

// groupRange is the list-mode analog of traverseRange over leaf groups
// [glo, ghi), as worker w: one interaction-list build per group, then
// per-particle list evaluation (bitwise identical to the recursive
// walk).
//
//lint:hotpath list traversal: one group walk per leaf group, one list evaluation per target, every evaluation
func (rt *evalRT) groupRange(w, glo, ghi int, advanceDiv float64) travCounts {
	var tc travCounts
	t := rt.ltree
	sc := &rt.a.scratch[w]
	for gi := glo; gi < ghi; gi++ {
		nd := &t.Nodes[rt.a.groups[gi]]
		gc, ge := t.GroupBounds(nd.First, nd.Count)
		rt.buildGroupList(sc, gc, ge)
		for i := nd.First; i < nd.First+nd.Count; i++ {
			rt.evalTarget(sc, true, t.Order[i], advanceDiv, &tc)
		}
	}
	return tc
}

// buildGroupList performs the group-level walk of the global tree for
// the leaf-group box (center gc, per-axis half-extents ge — the tight
// bounding box of the group's particles) into the worker's list.
// Remote leaves go on the list unchecked: evaluating one checks that
// the exchange resolved it (leafLanes).
func (rt *evalRT) buildGroupList(sc *travScratch, gc, ge vec.Vec3) {
	theta := rt.s.cfg.Theta
	theta2 := theta * theta
	hl := &sc.hl
	hl.reset()
	stack := append(sc.stack[:0], 1)
	for len(stack) > 0 {
		pk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := rt.a.cells.get(pk)
		if g == nil || g.nd.Count == 0 {
			continue
		}
		if g.owner == rt.me {
			idx := rt.ltree.FindCell(pk)
			if idx < 0 {
				panic("hot: local branch cell missing from local tree")
			}
			segLo := len(hl.llist.Items)
			opens0 := hl.llist.Opens
			rt.ltree.AppendInteractionList(&hl.llist, tree.MACBarnesHut, theta, int32(idx), gc, ge)
			hl.items = append(hl.items, hotItem{
				kind: hLocal, segLo: segLo, segHi: len(hl.llist.Items),
				opens: hl.llist.Opens - opens0,
			})
			continue
		}
		if g.nd.Leaf {
			hl.items = append(hl.items, hotItem{kind: hNear, g: g})
			continue
		}
		switch tree.ClassifyGroup(tree.MACBarnesHut, theta2, &g.nd, gc, ge) {
		case tree.GroupAccept:
			hl.items = append(hl.items, hotItem{kind: hFar, g: g})
		case tree.GroupOpen:
			hl.opens++
			stack = append(stack, rt.open(g)...)
		default:
			hl.items = append(hl.items, hotItem{kind: hAmb, g: g})
		}
	}
	sc.stack = stack
}

// vortexAtList evaluates one target against the worker's group list,
// accumulating into acc; the summation order matches a vortexWalk from
// the root exactly.
func (rt *evalRT) vortexAtList(sc *travScratch, acc *vortexAcc, x vec.Vec3, skipLocal int) {
	hl := &sc.hl
	acc.rejects = hl.opens
	theta := rt.s.cfg.Theta
	for i := range hl.items {
		it := &hl.items[i]
		switch it.kind {
		case hLocal:
			view := tree.InteractionList{Items: hl.llist.Items[it.segLo:it.segHi], Opens: it.opens}
			sub := rt.ltree.EvalVortexList(&view, tree.MACBarnesHut, theta, x, skipLocal, &rt.a.vb, rt.s.cfg.Dipole)
			acc.addLocal(&sub)
		case hFar:
			rt.vortexFar(acc, it.g, x)
		case hNear:
			rt.vortexNear(acc, it.g, x)
		default:
			rt.vortexWalk(sc, acc, it.g.pkey, x, skipLocal)
		}
	}
}

// coulombAtList is vortexAtList for the Coulomb discipline.
func (rt *evalRT) coulombAtList(sc *travScratch, acc *coulombAcc, x vec.Vec3, skipLocal int) {
	hl := &sc.hl
	acc.rejects = hl.opens
	theta := rt.s.cfg.Theta
	for i := range hl.items {
		it := &hl.items[i]
		switch it.kind {
		case hLocal:
			view := tree.InteractionList{Items: hl.llist.Items[it.segLo:it.segHi], Opens: it.opens}
			sub := rt.ltree.EvalCoulombList(&view, theta, rt.s.cfg.Eps, x, skipLocal)
			acc.addLocal(&sub)
		case hFar:
			rt.coulombFar(acc, it.g, x)
		case hNear:
			rt.coulombNear(acc, it.g, x)
		default:
			rt.coulombWalk(sc, acc, it.g.pkey, x, skipLocal)
		}
	}
}

// traverseHybridSched is traverseHybrid with the work-stealing
// scheduler over leaf groups instead of static index blocks: Threads
// workers claim and steal group ranges. Steal counts and per-worker
// busy time land in Stats and telemetry (hot.steals, hot.worker_busy).
//
//lint:coldpath once-per-evaluation worker fan-out (scheduler closure); the per-group work is rooted at groupRange
func (rt *evalRT) traverseHybridSched() travCounts {
	nGroups := len(rt.a.groups)
	workers := rt.s.cfg.Threads
	if workers > nGroups && nGroups > 0 {
		workers = nGroups
	}
	var inter, accepts, rejects atomic.Int64
	ss := sched.Run(workers, nGroups, rt.s.stealGrain, func(w, lo, hi int) {
		tc := rt.groupRange(w, lo, hi, float64(workers))
		inter.Add(tc.inter)
		accepts.Add(tc.accepts)
		rejects.Add(tc.rejects)
	})
	rt.stats.Steals += ss.Steals
	for _, b := range ss.Busy {
		rt.s.probe.workerBusy.Observe(b)
	}
	return travCounts{inter: inter.Load(), accepts: accepts.Load(), rejects: rejects.Load()}
}
