package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/guard"
	"repro/internal/hot"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
)

// solverField returns the named unexported field of a hot.Solver. The
// arena and θ are hot's own business, and no caller needs them; only
// this test, which pins how core builds the levels, reads them.
func solverField(s *hot.Solver, name string) reflect.Value {
	return reflect.ValueOf(s).Elem().FieldByName(name)
}

// oneEvaluator returns an error unless fine and coarse are one rank's
// levels as levelSolver builds them: a single evaluation arena and a
// single scratch (work, vel, str), with each level's own θ.
func oneEvaluator(cfg Config, fine, coarse *DistVortexSystem) error {
	thetaF := solverField(fine.solver, "cfg").FieldByName("Theta").Float()
	thetaC := solverField(coarse.solver, "cfg").FieldByName("Theta").Float()
	switch {
	case solverField(fine.solver, "arena").Pointer() != solverField(coarse.solver, "arena").Pointer():
		return fmt.Errorf("the levels evaluate in two arenas")
	case fine.work != coarse.work:
		return fmt.Errorf("the levels unpack into two work systems")
	case len(fine.vel) == 0 || &fine.vel[0] != &coarse.vel[0] || &fine.str[0] != &coarse.str[0]:
		return fmt.Errorf("the levels evaluate into two vel/str scratches")
	case fine.local != coarse.local:
		return fmt.Errorf("the levels hold two local systems")
	case thetaF != cfg.ThetaFine || thetaC != cfg.ThetaCoarse:
		return fmt.Errorf("θ = %g / %g, want %g / %g", thetaF, thetaC, cfg.ThetaFine, cfg.ThetaCoarse)
	}
	return nil
}

// TestLevelsShareArenaAndScratch pins what levelSolver builds: the
// coarse level is the fine one with θ_coarse, so a rank has one
// evaluation arena and one level scratch, and the PFASST configuration
// runs exactly those two systems.
func TestLevelsShareArenaAndScratch(t *testing.T) {
	cfg := Default(1, 2)
	full := particle.RandomVortexBlob(32, 0.2, 7)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		local := hot.BlockPartition(full, c.Rank(), c.Size())
		pcfg, fine, coarse := levelSolver(c, cfg, local, nil)
		if len(pcfg.Levels) != 2 || pcfg.Levels[0].Sys != fine || pcfg.Levels[1].Sys != coarse {
			return fmt.Errorf("rank %d: the PFASST levels are not the returned systems", c.Rank())
		}
		if err := oneEvaluator(cfg, fine, coarse); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// watchLevels wraps buildLevels for the rest of the test: every
// hierarchy the grid loop builds is checked with oneEvaluator. The
// returned function reports the first violation and the spatial widths
// of the builds seen, ascending and without repeats.
func watchLevels(t *testing.T) func() ([]int, error) {
	t.Helper()
	var mu sync.Mutex
	var widths []int
	var bad error
	buildLevels = func(space *mpi.Comm, cfg Config, local *particle.System, grd *guard.Guard) (pfasst.Config, *DistVortexSystem, *DistVortexSystem) {
		pcfg, fine, coarse := levelSolver(space, cfg, local, grd)
		err := oneEvaluator(cfg, fine, coarse)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && bad == nil {
			bad = fmt.Errorf("world rank %d, spatial width %d: %w", space.WorldRank(), space.Size(), err)
		}
		if !slices.Contains(widths, space.Size()) {
			widths = append(widths, space.Size())
		}
		return pcfg, fine, coarse
	}
	t.Cleanup(func() { buildLevels = levelSolver })
	return func() ([]int, error) {
		mu.Lock()
		defer mu.Unlock()
		slices.Sort(widths)
		return slices.Clone(widths), bad
	}
}

// solveBytes returns what the whole process allocates during one
// RunSpaceTime of cfg on sys over steps steps of 1/16, measured after a
// warm-up solve and a GC (ranks share one heap).
func solveBytes(t *testing.T, cfg Config, sys *particle.System, steps int) uint64 {
	t.Helper()
	solve := func() {
		err := mpi.Run(cfg.PT*cfg.PS, func(w *mpi.Comm) error {
			_, err := RunSpaceTime(w, cfg, sys, 0, float64(steps)/16, steps)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	solve()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWholeSolveBytes bounds what one warm space-time solve allocates:
// a PT = 2 × PS = 2 grid on the N = 320 sheet, one block of two steps.
// Every solve builds its ranks' hierarchies afresh, so the figure is
// mostly the warm-up of each rank's one evaluation arena (the 2n-node
// tree reservation, the route, prefetch and result blocks, the lanes
// and the outputs) and the level scratch; a second arena per level, as
// levelSolver built before the levels shared one, adds about half of
// it again. It also holds the runtime refilling its caches of
// wait-queue entries after the GC, a fixed 10–17 KB, and a mailbox or
// the free list growing at a new in-flight peak; the margin covers
// both. 30 runs read 2.68–2.75 MB (amd64, 2 cores; 15 of them beside
// a running benchmark), against 3.91–3.98 MB over 12 runs with an
// arena per level. The ceiling is the largest figure measured × 1.3.
func TestWholeSolveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the byte ceiling holds in the non-race lane")
	}
	const ceiling = 3_576_000
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(320))
	b := solveBytes(t, Default(2, 2), sys, 2)
	t.Logf("%d B per solve", b)
	if b > ceiling {
		t.Errorf("a warm PT = 2 × PS = 2 solve allocates %d B, ceiling %d", b, ceiling)
	}
}

// raceEnabled is set by the tagged init in race_enabled_test.go.
var raceEnabled bool
