package pfasst

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/ode"
)

// TestRunBlockAllocatesNothing checks that a warm block body allocates
// nothing per block on the plain link: the transfer scratch, the
// previous slice end, the received slice end and the sweeper's
// residual scratch are all allocated once, and the pipeline's
// messages travel in the world's recycled buffers. At PT > 1 the count
// is every rank's mallocs over the same blocks, per block as
// testing.AllocsPerRun counts them (the integer mean); a barrier after
// each block stands in for the end-value broadcast that keeps ranks
// one block apart in a run. That broadcast is left out because it is
// not allocation-free: bcastEnd returns a fresh slice per block, which
// the time loops keep as the next block's start value. The window is long because a few
// allocations are not per block: a mailbox or the free list growing
// at a new in-flight peak, and the runtime filling its per-processor
// caches of wait-queue entries, which a loaded host stretches over
// dozens of blocks. Each is bounded by the world's size, not by the
// number of blocks, and reads 0 in a 1000-block mean; an allocation per
// block reads at least 1 at any length.
func TestRunBlockAllocatesNothing(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	cfg := Config{
		Levels:     []LevelSpec{{Sys: sys, NNodes: 3}, {Sys: sys, NNodes: 2}},
		Iterations: 2, CoarseSweeps: 2,
	}
	const warm, blocks = 5, 1000
	for _, pt := range []int{1, 2, 4} {
		var mallocs uint64
		err := mpi.Run(pt, func(c *mpi.Comm) error {
			s, err := NewGridSolver(cfg, &Result{})
			if err != nil {
				return err
			}
			u0 := exact(0)
			run := func(n int) error {
				for range n {
					if _, err := s.runBlock(c, link{}, 0, 0.1, u0, 0, 1); err != nil {
						return err
					}
					c.Barrier()
				}
				return nil
			}
			if err := run(warm); err != nil {
				return err
			}
			var before, after runtime.MemStats
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			if err := run(blocks); err != nil {
				return err
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				mallocs = after.Mallocs - before.Mallocs
			}
			return nil
		})
		if err != nil {
			t.Fatalf("PT = %d: %v", pt, err)
		}
		t.Logf("PT = %d: %d mallocs over %d blocks", pt, mallocs, blocks)
		if per := mallocs / blocks; per != 0 {
			t.Errorf("PT = %d: runBlock allocates %d times per block over all ranks, want 0", pt, per)
		}
	}
}
