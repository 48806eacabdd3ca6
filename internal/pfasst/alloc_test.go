package pfasst

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/ode"
)

// TestRunBlockAllocatesNothing checks that a warm block body allocates
// nothing per block: the transfer scratch, the previous slice end and
// the sweeper's residual scratch are all allocated once.
func TestRunBlockAllocatesNothing(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	cfg := Config{
		Levels:     []LevelSpec{{Sys: sys, NNodes: 3}, {Sys: sys, NNodes: 2}},
		Iterations: 2, CoarseSweeps: 2,
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewGridSolver(cfg, &Result{})
		if err != nil {
			return err
		}
		u0 := exact(0)
		var runErr error
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.runBlock(c, link{}, 0, 0.1, u0, 0, 1); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return runErr
		}
		if allocs != 0 {
			t.Errorf("runBlock allocates %v times per block, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
