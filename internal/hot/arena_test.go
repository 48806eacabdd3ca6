package hot

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// rankOutput is one rank's result of one evaluation: the four output
// words per particle (velocity + stretching, or potential + field) and
// the work counters.
type rankOutput struct {
	vals []float64
	st   Stats
}

// evalOutput runs one collective evaluation of the rank's share of
// full on s and returns a copy of what it produced.
func evalOutput(s *Solver, c *mpi.Comm, full *particle.System, disc tree.Discipline) rankOutput {
	local := BlockPartition(full, c.Rank(), c.Size())
	n := local.N()
	a, b := make([]vec.Vec3, n), make([]vec.Vec3, n)
	pot := make([]float64, n)
	var out rankOutput
	switch disc {
	case tree.Vortex:
		s.Eval(local, a, b)
		for i := range a {
			out.vals = append(out.vals, a[i].X, a[i].Y, a[i].Z, b[i].X, b[i].Y, b[i].Z)
		}
	case tree.Coulomb:
		s.Coulomb(local, pot, a)
		for i := range a {
			out.vals = append(out.vals, pot[i], a[i].X, a[i].Y, a[i].Z)
		}
	}
	out.st = s.Last
	return out
}

func sameOutput(a, b rankOutput) error {
	if len(a.vals) != len(b.vals) {
		return fmt.Errorf("%d output words vs %d", len(a.vals), len(b.vals))
	}
	for i := range a.vals {
		if a.vals[i] != b.vals[i] {
			return fmt.Errorf("output word %d: %v vs %v", i, a.vals[i], b.vals[i])
		}
	}
	if !sameWork(a.st, b.st) || a.st.Prefetched != b.st.Prefetched || a.st.NLocal != b.st.NLocal ||
		a.st.TotalBranches != b.st.TotalBranches {
		return fmt.Errorf("work differs: %+v vs %+v", a.st, b.st)
	}
	return nil
}

// TestArenaCarriesNoStateBetweenEvaluations: a solver's arena is reset,
// not rebuilt, so anything an evaluation leaves behind — cells in the
// table, child keys, lanes, outputs, scratch lists — must be invisible
// to the next one. One solver per rank evaluates system A, then a
// smaller and differently clustered B (different N per rank, so every
// slab shrinks), then A again (regrow): the third result and work
// counters must equal the first bit for bit, and both must equal what
// a fresh solver produces.
func TestArenaCarriesNoStateBetweenEvaluations(t *testing.T) {
	sysA := particle.SphericalVortexSheet(particle.DefaultSheet(420))
	sysB := particle.ClusteredVortexSheet(150)
	for i := range sysA.Particles {
		sysA.Particles[i].Charge = 1 - 2*float64(i%2)
	}
	for i := range sysB.Particles {
		sysB.Particles[i].Charge = 1.0 / float64(sysB.N())
	}
	for _, p := range []int{1, 2, 3} {
		for _, disc := range []tree.Discipline{tree.Vortex, tree.Coulomb} {
			for _, branch := range []BranchMode{BranchBatched, BranchRing} {
				for _, threads := range []int{0, 3} {
					cfg := defaultCfg(0.35)
					cfg.Eps = 0.01
					cfg.Branch = branch
					cfg.Threads = threads
					name := fmt.Sprintf("p=%d disc=%d %v threads=%d", p, disc, branch, threads)
					err := mpi.Run(p, func(c *mpi.Comm) error {
						s := New(c, cfg)
						first := evalOutput(s, c, sysA, disc)
						evalOutput(s, c, sysB, disc)
						third := evalOutput(s, c, sysA, disc)
						fresh := evalOutput(New(c, cfg), c, sysA, disc)
						if err := sameOutput(first, third); err != nil {
							return fmt.Errorf("rank %d: A after B differs from A: %w", c.Rank(), err)
						}
						if err := sameOutput(third, fresh); err != nil {
							return fmt.Errorf("rank %d: reused solver differs from a fresh one: %w", c.Rank(), err)
						}
						if p > 1 && first.st.Prefetched == 0 {
							return fmt.Errorf("rank %d: nothing prefetched: the case does not exercise remote cells", c.Rank())
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// steadyStateBytes returns the bytes the whole world allocates during
// one collective Eval on warm solvers (ranks share one heap, so the
// figure is taken between barriers by rank 0).
func steadyStateBytes(t *testing.T, full *particle.System, p int, cfg Config) uint64 {
	t.Helper()
	var bytes uint64
	err := mpi.Run(p, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), p)
		s := New(c, cfg)
		lv := make([]vec.Vec3, local.N())
		ls := make([]vec.Vec3, local.N())
		s.Eval(local, lv, ls)
		s.Eval(local, lv, ls)
		var before, after runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		s.Eval(local, lv, ls)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			bytes = after.TotalAlloc - before.TotalAlloc
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes
}

// TestSteadyStateBytes bounds what a warm evaluation allocates. The
// arena holds everything package hot builds and mpi.Alltoall lends the
// route, prefetch and result blocks instead of copying them, so what
// is left is the collectives' own small slices and frames: 0.7 / 9.6 /
// 22.3 KB per collective Eval of the N = 640 sheet at p = 1 / 2 / 3
// (amd64), against 0.10 / 0.21 / 0.33 MB when the arena landed (PR 16)
// and 1.33 / 2.06 / 2.72 MB before it. The ceilings are those figures
// × 1.3 (2 KB at p = 1, where one stray 176-byte object is a quarter
// of the figure).
func TestSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the byte ceilings hold in the non-race lane")
	}
	full := particle.SphericalVortexSheet(particle.ScaledSheet(640))
	for _, tc := range []struct {
		p       int
		ceiling uint64
	}{{1, 2 << 10}, {2, 13 << 10}, {3, 30 << 10}} {
		b := steadyStateBytes(t, full, tc.p, defaultCfg(0.3))
		t.Logf("p=%d: %d B per warm evaluation", tc.p, b)
		if b > tc.ceiling {
			t.Errorf("p=%d: a warm evaluation allocates %d B, ceiling %d", tc.p, b, tc.ceiling)
		}
	}
}

// raceEnabled is set by the tagged init in race_enabled_test.go.
var raceEnabled bool
