package sched

import (
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n, grain int }{
		{1, 100, 7},
		{4, 1000, 0},
		{4, 1000, 1},
		{8, 37, 5},
		{16, 3, 0},  // more workers than items
		{3, 1, 100}, // grain larger than n
		{0, 500, 0}, // auto workers
	} {
		seen := make([]atomic.Int32, tc.n)
		st := Run(tc.workers, tc.n, tc.grain, func(_, lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("workers=%d n=%d grain=%d: bad chunk [%d,%d)", tc.workers, tc.n, tc.grain, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d grain=%d: index %d processed %d times", tc.workers, tc.n, tc.grain, i, got)
			}
		}
		if st.Workers < 1 || len(st.Busy) != st.Workers {
			t.Errorf("workers=%d n=%d grain=%d: bad stats %+v", tc.workers, tc.n, tc.grain, st)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	called := false
	st := Run(4, 0, 1, func(_, _, _ int) { called = true })
	if called || st.Workers != 0 || st.Steals != 0 {
		t.Fatalf("empty run misbehaved: called=%v stats=%+v", called, st)
	}
}

// TestRunRepanicsInCaller: a panic on a worker goroutine reaches the
// caller with its value, whichever worker raised it, and Run returns
// only after every worker stopped.
func TestRunRepanicsInCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var running atomic.Int32
		var got any
		func() {
			defer func() { got = recover() }()
			Run(workers, 64, 1, func(_, lo, _ int) {
				running.Add(1)
				defer running.Add(-1)
				if lo == 37 {
					panic("chunk 37")
				}
			})
		}()
		if got != "chunk 37" {
			t.Fatalf("workers=%d: recovered %v, want the worker's panic value", workers, got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("workers=%d: %d chunks still running after Run returned", workers, n)
		}
	}
}

func TestRunChunksRespectGrain(t *testing.T) {
	Run(4, 1000, 16, func(_, lo, hi int) {
		if hi-lo > 16 {
			t.Errorf("chunk [%d,%d) exceeds grain 16", lo, hi)
		}
	})
}

func TestRunStealsUnderImbalance(t *testing.T) {
	// All the cost sits in the first quarter of the index space (the
	// first worker's initial range); the other workers must steal to
	// finish it. A tiny spin keeps the imbalance real without making
	// the test slow.
	const n = 4096
	var sink atomic.Int64
	st := Run(4, n, 8, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i < n/4 {
				s := int64(0)
				for k := 0; k < 20000; k++ {
					s += int64(k ^ i)
				}
				sink.Add(s)
			}
		}
	})
	if st.Workers != 4 {
		t.Fatalf("expected 4 workers, got %d", st.Workers)
	}
	if st.Steals == 0 {
		t.Errorf("expected steals under a 4:1 load imbalance, got none")
	}
}

// TestRunAlignedBoundariesAndCoverage checks the two properties SoA
// evaluators rely on: every index is processed exactly once, and every
// chunk boundary except the final n is a multiple of align (so inner
// loops always start on a full batch block).
func TestRunAlignedBoundariesAndCoverage(t *testing.T) {
	for _, tc := range []struct{ workers, n, grain, align int }{
		{1, 100, 7, 8},
		{4, 1000, 0, 8},
		{4, 1003, 0, 8}, // ragged tail
		{8, 37, 5, 16},
		{16, 3, 0, 8},  // fewer items than one block
		{4, 8, 0, 8},   // exactly one block
		{4, 500, 3, 1}, // align ≤ 1 degenerates to Run
		{0, 257, 0, 8}, // auto workers
	} {
		seen := make([]atomic.Int32, tc.n)
		st := RunAligned(tc.workers, tc.n, tc.grain, tc.align, func(_, lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("%+v: bad chunk [%d,%d)", tc, lo, hi)
				return
			}
			if tc.align > 1 {
				if lo%tc.align != 0 {
					t.Errorf("%+v: chunk start %d not aligned", tc, lo)
				}
				if hi%tc.align != 0 && hi != tc.n {
					t.Errorf("%+v: chunk end %d neither aligned nor n", tc, hi)
				}
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("%+v: index %d processed %d times", tc, i, got)
			}
		}
		if st.Workers < 1 {
			t.Fatalf("%+v: no workers reported", tc)
		}
	}
}
