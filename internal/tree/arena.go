package tree

import (
	"repro/internal/particle"
	"repro/internal/telemetry"
)

// BuildPhases records the serialized durations of the most recent
// BuildInto on an arena, in host seconds: Morton key computation, the
// radix sort of (key, index), node construction with moment
// accumulation, and the inverse permutation with the SoA lane gather
// (the gather is skipped under LayoutAoS). The
// stamps cost four telemetry.Wall reads per build — noise against the
// build itself — and feed the per-phase benchmark breakdowns.
type BuildPhases struct {
	KeysSec, SortSec, NodesSec, GatherSec float64
}

// Arena owns every allocation of a tree build so that rebuilding for
// the next step (or the guard's retry ladder) reuses the previous
// step's capacity: node slice, Morton keys and permutation, radix
// scratch, the SoA lanes and the inverse permutation. A Solver holds
// one Arena per discipline and reaches steady state after the first
// Eval — subsequent builds allocate nothing unless the particle count
// grows past the high-water mark.
type Arena struct {
	// Phases holds the phase timings of the most recent BuildInto.
	Phases BuildPhases

	tree     Tree
	lanes    particle.SoA
	keyOf    []uint64
	tmpKeys  []uint64
	tmpOrder []int
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// radixSortKeyOrder sorts the parallel (keys, order) pair by key
// ascending with a stable LSD radix sort (eight 8-bit passes,
// byte-uniform passes skipped). order must start as the ascending
// identity permutation; stability then breaks key ties by original
// index, reproducing exactly the comparator Build historically passed
// to sort.Slice — same total order, same permutation, bitwise-equal
// trees.
func radixSortKeyOrder(keys []uint64, order []int, tmpKeys []uint64, tmpOrder []int) {
	n := len(keys)
	if n < 2 {
		return
	}
	srcK, srcO := keys, order
	dstK, dstO := tmpKeys, tmpOrder
	swapped := false
	for shift := uint(0); shift < 64; shift += 8 {
		var count [256]int
		for _, k := range srcK {
			count[(k>>shift)&0xff]++
		}
		if count[(srcK[0]>>shift)&0xff] == n {
			continue // every key shares this byte: the pass is a no-op
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range srcK {
			b := (k >> shift) & 0xff
			pos := count[b]
			count[b]++
			dstK[pos] = k
			dstO[pos] = srcO[i]
		}
		srcK, dstK = dstK, srcK
		srcO, dstO = dstO, srcO
		swapped = !swapped
	}
	if swapped {
		copy(keys, srcK)
		copy(order, srcO)
	}
}

// BuildInto is Build with arena-backed storage: the returned tree is
// a.tree, and every slice it references is reused from the previous
// build of the same arena. The tree is valid until the arena's next
// BuildInto. Passing a fresh arena is equivalent to Build.
func BuildInto(a *Arena, sys *particle.System, cfg BuildConfig) *Tree {
	if cfg.LeafCap < 1 {
		cfg.LeafCap = 1
	}
	n := sys.N()
	if n == 0 {
		panic("tree: Build on empty system")
	}
	lo, hi := sys.Bounds()
	dom := NewDomain(lo, hi)
	if cfg.Domain != nil {
		dom = *cfg.Domain
	}
	t := &a.tree
	t.Domain = dom
	t.Order = growInts(t.Order, n)
	t.Keys = growU64(t.Keys, n)
	t.sys = sys
	t.discipline = cfg.Discipline
	t.leafCap = cfg.LeafCap
	t.ownedLo, t.ownedHi, t.ownedSet = cfg.OwnedLo, cfg.OwnedHi, cfg.OwnedSet
	t0 := telemetry.Wall()
	a.keyOf = growU64(a.keyOf, n)
	for i := range sys.Particles {
		a.keyOf[i] = t.Domain.Key(sys.Particles[i].Pos)
	}
	for i := 0; i < n; i++ {
		t.Order[i] = i
		t.Keys[i] = a.keyOf[i]
	}
	t1 := telemetry.Wall()
	a.tmpKeys = growU64(a.tmpKeys, n)
	a.tmpOrder = growInts(a.tmpOrder, n)
	radixSortKeyOrder(t.Keys, t.Order, a.tmpKeys, a.tmpOrder)
	t2 := telemetry.Wall()
	if t.Nodes == nil {
		t.Nodes = make([]Node, 0, 2*n)
	} else {
		t.Nodes = t.Nodes[:0]
	}
	t.Root = t.build(0, n, 0, 0)
	t3 := telemetry.Wall()
	t.sortedPos = growI32(t.sortedPos, n)
	for i, idx := range t.Order {
		t.sortedPos[idx] = int32(i)
	}
	t.Lanes = nil
	if cfg.Layout == particle.LayoutSoA {
		switch cfg.Discipline {
		case Coulomb:
			a.lanes.GatherCoulomb(sys, t.Order)
		default:
			a.lanes.GatherVortex(sys, t.Order)
		}
		t.Lanes = &a.lanes
	}
	t4 := telemetry.Wall()
	a.Phases = BuildPhases{
		KeysSec:   t1 - t0,
		SortSec:   t2 - t1,
		NodesSec:  t3 - t2,
		GatherSec: t4 - t3,
	}
	return t
}
