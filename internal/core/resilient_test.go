package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/hot"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/telemetry"
)

// resilientCfg is Default(pt, ps) on the deadline link.
func resilientCfg(pt, ps int) Config {
	cfg := Default(pt, ps)
	cfg.Resilience = pfasst.Resilience{RecvTimeout: 5 * time.Second}
	return cfg
}

// runCrashGrid runs RunSpaceTime over nsteps steps of 1/64 on a
// 32-particle blob under a crash plan and returns every rank's Result
// (nil for ranks that died) and telemetry.
func runCrashGrid(t *testing.T, cfg Config, plan string, nsteps int) ([]*Result, []telemetry.Snapshot) {
	t.Helper()
	var pol mpi.FaultPolicy
	if plan != "" {
		p, err := fault.Parse(plan, 7)
		if err != nil {
			t.Fatal(err)
		}
		pol = p
	}
	full := particle.RandomVortexBlob(32, 0.2, 7)
	out := make([]*Result, cfg.PT*cfg.PS)
	tel := make([]telemetry.Snapshot, len(out))
	_, err := mpi.RunOpts(len(out), mpi.Options{Fault: pol}, func(w *mpi.Comm) error {
		rcfg := cfg
		rcfg.Tel = telemetry.New()
		res, err := RunSpaceTime(w, rcfg, full, 0, float64(nsteps)/64, nsteps)
		if err != nil {
			return err
		}
		out[w.Rank()], tel[w.Rank()] = &res, rcfg.Tel.Snapshot()
		return nil
	})
	if pol == nil && err != nil || pol != nil && !errors.Is(err, mpi.ErrInjectedCrash) {
		t.Fatalf("plan %q: run error %v", plan, err)
	}
	return out, tel
}

// TestGridCrashSliceLossShrinksTimeWidth is the PT-shrink: a 4×2 grid
// loses time slice 1 whole between blocks. The slice drops out, the
// three live slices close ranks and the remaining 12 steps run as four
// 3-step blocks at the full spatial width — nobody retires, no tail —
// and every survivor reports the live time width.
func TestGridCrashSliceLossShrinksTimeWidth(t *testing.T) {
	const pt, ps, nsteps = 4, 2, 16
	clean, _ := runCrashGrid(t, resilientCfg(pt, ps), "", nsteps)
	got, tel := runCrashGrid(t, resilientCfg(pt, ps), "crash=2@block:4,crash=3@block:4", nsteps)
	for r, res := range got {
		if r == 2 || r == 3 {
			if res != nil {
				t.Fatalf("dead rank %d produced a result", r)
			}
			continue
		}
		if res == nil {
			t.Fatalf("survivor rank %d has no result", r)
		}
		pr := res.PFASST
		if !res.Participated || res.SpatialRanks != ps || res.SpatialIndex != r%ps || res.TimeSlice != r/ps {
			t.Fatalf("rank %d: share %d/%d of slice %d, participated %v: a whole-slice loss must leave the spatial grid alone",
				r, res.SpatialIndex, res.SpatialRanks, res.TimeSlice, res.Participated)
		}
		if pr.FinalRanks != pt-1 {
			t.Fatalf("rank %d: FinalRanks = %d, want the live time width %d", r, pr.FinalRanks, pt-1)
		}
		// One 4-step block, then 12 steps as four 3-step blocks.
		if len(pr.Residuals) != 5 || pr.DegradedBlocks != 4 || pr.BlockRestarts != 1 {
			t.Fatalf("rank %d: %d block records, %d degraded, %d restarts; want 5, 4, 1",
				r, len(pr.Residuals), pr.DegradedBlocks, pr.BlockRestarts)
		}
		if n := tel[r].Counters[pfasst.CounterShrinks]; n != 1 {
			t.Fatalf("rank %d: %s = %d, want 1", r, pfasst.CounterShrinks, n)
		}
		if n := tel[r].Counters[CounterRecoveryRetired]; n != 0 {
			t.Fatalf("rank %d retired", r)
		}
		// Every slice ends a block with the same state, and the narrower
		// blocks stay scientifically consistent with the 4-wide run.
		ref := got[r%ps].PFASST.U
		for i, v := range pr.U {
			if v != ref[i] {
				t.Fatalf("rank %d disagrees with slice 0 on its column's state", r)
			}
		}
		for i, p := range res.Local.Particles {
			if d := p.Pos.Sub(clean[r].Local.Particles[i].Pos).Norm(); d > 1e-4 {
				t.Fatalf("rank %d particle %d deviates %g from the fault-free run", r, i, d)
			}
		}
	}
}

// TestGridCrashDeadSliceAndThinnedSlice: slice 1 dies whole AND slice 2
// loses one rank. The dead slice must not count toward the spatial
// width (the minimum runs over LIVE slices): the grid continues 3×1,
// the spare ranks of the two full slices retire, and the tail the
// 3-wide blocks leave over runs as a 2×1 block on slices 0 and 2.
// The hierarchies rebuilt on the narrower grid keep one evaluation
// arena and one level scratch per rank, as the first ones do.
func TestGridCrashDeadSliceAndThinnedSlice(t *testing.T) {
	const pt, ps, nsteps = 4, 2, 8
	clean, _ := runCrashGrid(t, resilientCfg(pt, ps), "", nsteps)
	levels := watchLevels(t)
	got, tel := runCrashGrid(t, resilientCfg(pt, ps), "crash=2@block:0,crash=3@block:0,crash=5@block:0", nsteps)
	if widths, err := levels(); err != nil || !slices.Equal(widths, []int{1, ps}) {
		t.Fatalf("levels built at spatial widths %v (%v); want one arena per rank at widths [1 %d]", widths, err, ps)
	}
	for r, res := range got {
		if r == 2 || r == 3 || r == 5 {
			continue
		}
		if res == nil {
			t.Fatalf("survivor rank %d has no result", r)
		}
		pr := res.PFASST
		if pr.FinalRanks != pt-1 {
			t.Fatalf("rank %d: FinalRanks = %d, want %d", r, pr.FinalRanks, pt-1)
		}
		// Ranks 1 and 7 are retired by the width, once, at the shrink;
		// rank 6 runs both 3-step blocks and retires for the tail
		// alone, which the counter does not see.
		retired := r == 1 || r == 7
		if n := tel[r].Counters[CounterRecoveryRetired]; (n == 1) != retired || n > 1 {
			t.Fatalf("rank %d: retired %d times, want retired = %v", r, n, retired)
		}
		wantBlocks := map[int]int{0: 3, 4: 3, 6: 2}[r]
		if len(pr.Residuals) != wantBlocks || pr.DegradedBlocks != 3 {
			t.Fatalf("rank %d: %d block records, %d degraded; want %d, 3", r, len(pr.Residuals), pr.DegradedBlocks, wantBlocks)
		}
		inTail := r == 0 || r == 4
		if res.Participated != inTail {
			t.Fatalf("rank %d: participated = %v, want %v", r, res.Participated, inTail)
		}
		if !inTail {
			continue
		}
		if res.SpatialRanks != 1 || res.Local.N() != 32 {
			t.Fatalf("rank %d: share of %d ranks, %d particles; want the 1-wide grid's full state", r, res.SpatialRanks, res.Local.N())
		}
		if !slices.Equal(pr.U, got[0].PFASST.U) {
			t.Fatalf("rank %d: the tail's slices disagree on the final state", r)
		}
		for c := 0; c < ps; c++ {
			lo, _ := hot.BlockRange(res.Local.N(), c, ps)
			for i, p := range clean[c].Local.Particles {
				if d := p.Pos.Sub(res.Local.Particles[lo+i].Pos).Norm(); d > 1e-4 {
					t.Fatalf("rank %d particle %d deviates %g from the fault-free run", r, lo+i, d)
				}
			}
		}
	}
}

// TestGridCrashFirstSliceKeepsCheckpointing: the shard writers are the
// ranks of the first LIVE slice. When slice 0 dies, slice 1 takes over:
// the manifest keeps advancing (4 steps, a 3-step block, then the
// 1-step tail block on slice 1 alone) and records the time width of
// the block it commits.
func TestGridCrashFirstSliceKeepsCheckpointing(t *testing.T) {
	cfg := resilientCfg(4, 1)
	cfg.Resilience.CheckpointDir = t.TempDir()
	runCrashGrid(t, cfg, "crash=0@block:4", 8)
	gl, err := checkpoint.LoadGrid(cfg.Resilience.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if gl.StepsDone != 8 || gl.Block != 3 || gl.TimeRanks != 1 {
		t.Fatalf("checkpoint at %d steps, block %d, %d time ranks; want 8, 3, 1", gl.StepsDone, gl.Block, gl.TimeRanks)
	}
}

// TestGridResilientHonoursThreadsAtPS1: traversal workers never
// communicate, so the grid loop keeps the configured Threads at every
// PS, one column or two (the test ID predates that): the workers
// report busy time, and the deadline-link run still equals the
// plain-link one bitwise.
func TestGridResilientHonoursThreadsAtPS1(t *testing.T) {
	for _, ps := range []int{1, 2} {
		cfg := resilientCfg(2, ps)
		cfg.Threads = 2
		plain := cfg
		plain.Resilience = pfasst.Resilience{}
		want, _ := runCrashGrid(t, plain, "", 4)
		got, tel := runCrashGrid(t, cfg, "", 4)
		for r := range got {
			if tel[r].Timers[hot.TimerWorkerBusy].Count == 0 {
				t.Fatalf("PS = %d rank %d: no traversal worker ran: Threads was not honoured", ps, r)
			}
			for i, v := range got[r].PFASST.U {
				if v != want[r].PFASST.U[i] {
					t.Fatalf("PS = %d rank %d: deadline-link run with Threads = 2 differs from the plain-link one", ps, r)
				}
			}
		}
	}
}

// TestSpaceTimeRejectsRaggedSteps: nsteps must be a multiple of PT on
// both links — the grid loop would otherwise run the remainder as a
// tail block as if a slice had died.
func TestSpaceTimeRejectsRaggedSteps(t *testing.T) {
	full := particle.RandomVortexBlob(16, 0.2, 67)
	for _, cfg := range []Config{Default(2, 1), resilientCfg(2, 1)} {
		err := mpi.Run(2, func(w *mpi.Comm) error {
			if _, err := RunSpaceTime(w, cfg, full, 0, 1, 3); err == nil {
				t.Error("3 steps on PT = 2 accepted")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
