// Package sched provides the work-stealing scheduler used by the
// force evaluators (packages tree — and through it hot — and direct)
// to balance irregular per-target cost across worker goroutines.
//
// The static block splits the evaluators used before ("go func(lo,
// hi)") assign every worker an equal share of the target *indices*,
// but on clustered particle distributions — exactly the vortex-sheet
// regime the paper's Fig. 5 measures — equal index ranges carry wildly
// unequal interaction counts, so most workers idle while one finishes
// the dense cluster. The scheduler here fixes that with the classic
// range-splitting work-stealing scheme (cf. TBB's lazy binary
// splitting and the traversal scheduling of Dubinski's parallel tree
// code):
//
//   - Every worker owns a contiguous index range packed into a single
//     atomic word. The owner claims `grain` items at a time from the
//     front with a CAS.
//   - An idle worker scans the other workers and steals the *back
//     half* of the largest remaining range with a single CAS — no
//     locks, no channels, no allocation on the steal path.
//   - Work is conserved: each index is claimed exactly once, so
//     evaluators that write results by target index stay deterministic
//     no matter which worker processes which chunk.
//
// The per-run Stats report the number of successful steals and
// per-worker busy seconds; callers feed them into telemetry
// (hot.steals, hot.worker_busy) to make load balance observable.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stats summarizes one Run: how often idle workers stole work and how
// long each worker spent executing chunks (busy time excludes idle
// spinning, so max/mean busy is the residual load imbalance).
type Stats struct {
	// Workers is the number of worker goroutines actually used.
	Workers int
	// Steals counts successful steal operations.
	Steals int64
	// Busy holds per-worker seconds spent inside the chunk function.
	Busy []float64
}

// wsRange is one worker's remaining index range [lo, hi), packed as
// lo<<32|hi into a single atomic word so both claim and steal are one
// CAS. The pad keeps ranges on distinct cache lines.
type wsRange struct {
	bits atomic.Uint64
	_    [7]uint64 // pad to a cache line against false sharing
}

func pack(lo, hi int) uint64     { return uint64(lo)<<32 | uint64(uint32(hi)) }
func unpack(b uint64) (int, int) { return int(b >> 32), int(uint32(b)) }

// Run executes fn(worker, lo, hi) over a partition of [0, n) using up
// to `workers` goroutines (≤0 selects GOMAXPROCS). Chunks handed to fn
// never exceed `grain` items (grain < 1 selects an automatic grain).
// Each index is processed exactly once; the assignment of chunks to
// workers is load-driven and not deterministic, so fn must only write
// state owned by the indices it receives (plus commutative reductions).
// A panic in fn stops every worker and is re-raised in the caller's
// goroutine, so the caller recovers it as it would with one worker.
// RunAligned is Run with every chunk boundary rounded to a multiple of
// align (the final boundary n excepted): initial splits, claims and
// steal split points all land on align multiples because the scheduler
// runs over whole blocks of align indices. Evaluators that slice SoA
// lanes by [lo, hi) use it so every worker's inner loop starts on a
// full batch block. align ≤ 1 is plain Run.
func RunAligned(workers, n, grain, align int, fn func(worker, lo, hi int)) Stats {
	if align <= 1 {
		return Run(workers, n, grain, fn)
	}
	nb := (n + align - 1) / align
	gb := 0
	if grain > 0 {
		gb = (grain + align - 1) / align
	}
	return Run(workers, nb, gb, func(w, blo, bhi int) {
		lo := blo * align
		hi := bhi * align
		if hi > n {
			hi = n
		}
		fn(w, lo, hi)
	})
}

func Run(workers, n, grain int, fn func(worker, lo, hi int)) Stats {
	if n <= 0 {
		return Stats{}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if grain < 1 {
		// Aim for ~32 chunks per worker: claims are a single CAS, so
		// fine chunks cost next to nothing, and a small grain keeps the
		// tail of a clustered (expensive) range stealable — with coarse
		// chunks the last sub-grain run of hot targets is pinned to its
		// owner and caps the achievable balance.
		grain = n / (workers * 32)
		if grain < 1 {
			grain = 1
		}
	}
	if workers == 1 {
		t0 := time.Now()
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
		return Stats{Workers: 1, Busy: []float64{time.Since(t0).Seconds()}}
	}

	ranges := make([]wsRange, workers)
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		ranges[w].bits.Store(pack(lo, hi))
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	var steals atomic.Int64
	busy := make([]float64, workers)

	// claim takes up to grain items from the front of worker w's range.
	claim := func(w int) (int, int, bool) {
		for {
			b := ranges[w].bits.Load()
			lo, hi := unpack(b)
			if lo >= hi {
				return 0, 0, false
			}
			take := grain
			if take > hi-lo {
				take = hi - lo
			}
			if ranges[w].bits.CompareAndSwap(b, pack(lo+take, hi)) {
				return lo, lo + take, true
			}
		}
	}
	// steal moves the back half of the largest victim range into
	// worker w's (empty) range. Returns false when nothing was left
	// anywhere.
	steal := func(w int) bool {
		for attempt := 0; attempt < workers; attempt++ {
			victim, vbits, vlen := -1, uint64(0), grain
			for v := 0; v < workers; v++ {
				if v == w {
					continue
				}
				b := ranges[v].bits.Load()
				lo, hi := unpack(b)
				if hi-lo > vlen {
					victim, vbits, vlen = v, b, hi-lo
				}
			}
			if victim < 0 {
				return false // every range is down to its owner's tail
			}
			lo, hi := unpack(vbits)
			mid := lo + (hi-lo)/2
			if ranges[victim].bits.CompareAndSwap(vbits, pack(lo, mid)) {
				ranges[w].bits.Store(pack(mid, hi))
				steals.Add(1)
				return true
			}
		}
		return false
	}

	var failed atomic.Pointer[any]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failed.CompareAndSwap(nil, &r)
				}
			}()
			var busySec float64
			for failed.Load() == nil {
				lo, hi, ok := claim(w)
				if !ok {
					if remaining.Load() == 0 {
						break
					}
					if !steal(w) {
						// Nothing stealable right now: another worker
						// holds the rest as claimed chunks. Yield and
						// re-check for completion.
						runtime.Gosched()
					}
					continue
				}
				remaining.Add(int64(lo - hi))
				t0 := time.Now()
				fn(w, lo, hi)
				busySec += time.Since(t0).Seconds()
			}
			busy[w] = busySec
		}(w)
	}
	wg.Wait()
	if r := failed.Load(); r != nil {
		panic(*r)
	}
	return Stats{Workers: workers, Steals: steals.Load(), Busy: busy}
}
