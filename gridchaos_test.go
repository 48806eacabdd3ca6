package nbody

// Full-grid chaos property sweep (ISSUE 8): the space-time solver at
// PS > 1 under seeded crash plans, alone and composed with the guard's
// bit-flip injection. The property: every run either completes —
// bitwise identical for transient-only plans, within the documented
// degraded bound when ranks died — or returns a typed abort. Hangs and
// silent wrong answers are the forbidden outcomes (the in-process MPI
// deadlock detector converts a hang into an error, so plain test
// completion checks the former).

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/pfasst"
)

// gridDeviation is the acceptance bound for degraded completion after
// rank deaths: recovery re-decomposes onto fewer spatial ranks and
// runs blocks on fewer time slices, which is scientifically consistent
// but not bitwise.
const gridDeviation = 1e-4

func maxPosDev(a, b *System) float64 {
	var maxd float64
	for i := range a.Particles {
		if d := a.Particles[i].Pos.Sub(b.Particles[i].Pos).Norm(); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// TestFacadeGridCrashSpatialShrink: one rank of a 2×2 grid dies between
// blocks; its column still has a live replica, so recovery shrinks the
// spatial width to 1 and redistributes in memory — no checkpoint needed.
func TestFacadeGridCrashSpatialShrink(t *testing.T) {
	sys := RandomBlob(32, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(2, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(2, 2)
	cfg.Resilience.FaultPlan = "crash=3@block:2"
	cfg.Telemetry = true
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatalf("grid crash not survived: %v", err)
	}
	if d := maxPosDev(clean, out); d > gridDeviation {
		t.Fatalf("degraded grid run diverges by %g (> %g)", d, gridDeviation)
	}
	if stats.Run.Counter(core.CounterRecoveryRounds) == 0 {
		t.Fatal("no recovery rounds recorded after a crash")
	}
	if stats.Run.Counter("pfasst.block_restarts") == 0 {
		t.Fatal("no block restart recorded after a crash")
	}
	if stats.Run.Counter("fault.degraded_blocks") == 0 {
		t.Fatal("no degraded blocks recorded after a spatial shrink")
	}
}

// TestFacadeGridCrashMidAttempt: the death hits inside the block attempt
// (predictor / iteration fault points), so survivors are woken out of
// deadline receives and revoked spatial collectives, not caught at a
// clean block boundary. The Threads: 2 row repeats each plan with
// traversal workers: a comm failure only ever unwinds a rank's main
// goroutine (workers do not communicate), so recovery is the same and
// the result equals the Threads: 1 one bit for bit.
func TestFacadeGridCrashMidAttempt(t *testing.T) {
	sys := RandomBlob(32, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(2, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []string{"crash=2@iter:1", "crash=1@predictor:0"} {
		var single *System
		for _, threads := range []int{1, 2} {
			cfg := chaosConfig(2, 2)
			cfg.Resilience.FaultPlan = plan
			cfg.Threads = threads
			out, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
			if err != nil {
				t.Fatalf("%s, Threads: %d: not survived: %v", plan, threads, err)
			}
			if d := maxPosDev(clean, out); d > gridDeviation {
				t.Fatalf("%s, Threads: %d: diverges by %g", plan, threads, d)
			}
			if single == nil {
				single = out
				continue
			}
			for i := range out.Particles {
				if out.Particles[i] != single.Particles[i] {
					t.Fatalf("%s: particle %d differs between Threads: 1 and Threads: 2", plan, i)
				}
			}
		}
	}
}

// TestFacadeGridColumnLossCheckpointRestore: BOTH holders of spatial
// column 1 die at once, so no in-memory replica survives. With a
// checkpoint directory the committed block restores from disk and is
// re-decomposed onto the shrunken grid; without one the run must abort
// with the typed ErrStateLost — never hang, never fabricate state.
func TestFacadeGridColumnLossCheckpointRestore(t *testing.T) {
	sys := RandomBlob(32, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(2, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(2, 2)
	cfg.Resilience.FaultPlan = "crash=1@block:2,crash=3@block:2"
	cfg.Resilience.CheckpointDir = t.TempDir()
	out, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatalf("column loss with checkpoint not survived: %v", err)
	}
	if d := maxPosDev(clean, out); d > gridDeviation {
		t.Fatalf("checkpoint-restored run diverges by %g", d)
	}

	cfg = chaosConfig(2, 2)
	cfg.Resilience.FaultPlan = "crash=1@block:2,crash=3@block:2"
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 4); !errors.Is(err, core.ErrStateLost) {
		t.Fatalf("column loss without checkpoint: want ErrStateLost, got %v", err)
	}
}

// TestFacadeGridGuardResilienceCleanBitwise: guard + resilience at
// PS > 1 with a purely transient chaos plan AND seeded bit flips must
// reproduce the clean run bitwise — redo-after-corruption rebuilds the
// same grid at the same width, and the transport layer absorbs the
// losses.
func TestFacadeGridGuardResilienceCleanBitwise(t *testing.T) {
	sys := RandomBlob(32, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(2, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(2, 2)
	cfg.Resilience.FaultPlan = "drop=0.05,corrupt=0.03"
	cfg.Resilience.FaultSeed = 5
	cfg.Guard.Enabled = true
	// Top-exponent-bit flips are always caught by the magnitude scan,
	// and this seed injects at attempt 0 of each block with a clean
	// retry inside the budget — every flip is detected, redone, and
	// the final state matches the clean run bitwise.
	cfg.Guard.FlipPlan = "rate=5e-3,in=block,bits=62-62"
	cfg.Guard.FlipSeed = 5
	cfg.Telemetry = true
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		var v *guard.Violation
		if errors.As(err, &v) {
			t.Skipf("ladder exhausted under this seed (typed abort): %v", err)
		}
		t.Fatalf("guard+resilience chaos at PS>1 failed untyped: %v", err)
	}
	for i := range clean.Particles {
		if clean.Particles[i] != out.Particles[i] {
			t.Fatalf("transient guard+resilience chaos changed particle %d", i)
		}
	}
	if stats.Run.Counter(guard.CounterInjected) == 0 {
		t.Fatal("no guard flips recorded despite a flip plan")
	}
	// The ladder's telemetry works under resilience too, and a redone
	// block is recorded once: 4 ranks × 2 committed blocks.
	if stats.Run.Counter(guard.CounterRedo) == 0 {
		t.Fatal("flipped blocks were redone without counting guard.redo")
	}
	if got := stats.Run.Counter(pfasst.CounterBlocks); got != 4*2 {
		t.Fatalf("pfasst.blocks = %d after redos, want ranks × committed blocks = 8", got)
	}
}

// TestFacadeGridGuardCrashInterleaving is the composition sweep: seeded
// block corruption forcing guard redos, plus a rank crash placed before
// / during / after the redo window. Acceptable outcomes per case:
// bounded-deviation completion or a typed abort (guard violation or
// state loss). Hangs and silent divergence fail the property.
func TestFacadeGridGuardCrashInterleaving(t *testing.T) {
	sys := RandomBlob(32, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(2, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plans := []string{
		"crash=3@block:0",     // before the first attempt commits
		"crash=3@block:2",     // between blocks, after a guarded commit
		"crash=2@iter:1",      // mid-attempt, racing a possible redo
		"crash=1@predictor:0", // at attempt start
	}
	for _, plan := range plans {
		cfg := chaosConfig(2, 2)
		cfg.Resilience.FaultPlan = plan
		cfg.Guard.Enabled = true
		cfg.Guard.FlipPlan = "rate=5e-3,in=block,bits=62-62"
		cfg.Guard.FlipSeed = 5
		out, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
		if err != nil {
			var v *guard.Violation
			if errors.As(err, &v) || errors.Is(err, core.ErrStateLost) {
				continue // typed abort: acceptable outcome
			}
			t.Fatalf("%s: untyped failure: %v", plan, err)
		}
		if d := maxPosDev(clean, out); d > gridDeviation {
			t.Fatalf("%s: silent divergence %g", plan, d)
		}
	}
}

// TestFacadeGridCrash4x2Shrink: the wider 4×2 grid loses ranks in two
// different time slices at once; recovery shrinks the spatial width
// once for both and completes degraded.
func TestFacadeGridCrash4x2Shrink(t *testing.T) {
	sys := RandomBlob(32, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(4, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(4, 2)
	cfg.Resilience.FaultPlan = "crash=5@block:0,crash=7@iter:0"
	out, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatalf("double crash on 4×2 not survived: %v", err)
	}
	if d := maxPosDev(clean, out); d > gridDeviation {
		t.Fatalf("4×2 degraded run diverges by %g", d)
	}
}

// TestFacadeGridSliceLossContinuesNarrower: BOTH ranks of time slice 1
// of a 4×2 grid die mid-block. The slice drops out and the three live
// slices close ranks: the run continues 3×2 — nobody is retired by the
// width, every survivor commits two 3-step blocks — and the 2-step
// tail runs as a 2×2 block on slices 0 and 2, instead of the whole
// remainder collapsing to one slice.
func TestFacadeGridSliceLossContinuesNarrower(t *testing.T) {
	sys := RandomBlob(32, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(4, 2), sys, 0, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(4, 2)
	cfg.Resilience.FaultPlan = "crash=2@iter:1,crash=3@iter:1"
	cfg.Telemetry = true
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 8)
	if err != nil {
		t.Fatalf("slice loss on 4×2 not survived: %v", err)
	}
	if d := maxPosDev(clean, out); d > gridDeviation {
		t.Fatalf("3×2 degraded run diverges by %g", d)
	}
	const survivors, tailRanks = 6, 4
	if got := stats.Run.Counter(core.CounterRecoveryRetired); got != 0 {
		t.Errorf("%s = %d: neither a whole-slice loss nor a tail narrows the spatial width", core.CounterRecoveryRetired, got)
	}
	if got := stats.Run.Counter(pfasst.CounterBlocks); got != survivors*2+tailRanks {
		t.Errorf("pfasst.blocks = %d, want %d (each survivor's 2 three-step blocks, the tail on 4 ranks)", got, survivors*2+tailRanks)
	}
	if got := stats.Run.Counter(pfasst.CounterShrinks); got != survivors {
		t.Errorf("pfasst.shrinks = %d, want one per survivor", got)
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestFacadeCrashTailEqualsResume is the tail's oracle. A tail of fewer
// steps than live slices is an ordinary grid block on the first of
// them, so a crashed run that ends in one must land bitwise where a
// fresh grid of the tail's shape lands when it resumes the manifest
// committed before the tail. 4×1 loses slice 1 mid-block and runs
// 3 + 3 steps, then the 2-step tail on 2×1; 4×2 loses slice 1 whole
// and runs its tail on 2×2.
func TestFacadeCrashTailEqualsResume(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	for _, row := range []struct {
		pt, ps int
		plan   string
	}{
		{4, 1, "crash=1@iter:1"},
		{4, 2, "crash=2@iter:1,crash=3@iter:1"},
	} {
		dir, saved := t.TempDir(), t.TempDir()
		var copyErr error
		cfg := chaosConfig(row.pt, row.ps)
		cfg.Resilience.FaultPlan = row.plan
		cfg.Resilience.CheckpointDir = dir
		cfg.OnBlock = func(b int) {
			if b == 2 { // the tail: 6 steps are committed
				copyErr = copyDir(dir, saved)
			}
		}
		out, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 8)
		if err != nil || copyErr != nil {
			t.Fatalf("%s on %d×%d: %v, copy %v", row.plan, row.pt, row.ps, err, copyErr)
		}
		for _, c := range []struct {
			dir              string
			steps, timeRanks int
		}{{saved, 6, 3}, {dir, 8, 2}} {
			gl, err := checkpoint.LoadGrid(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			if gl.StepsDone != c.steps || gl.TimeRanks != c.timeRanks {
				t.Fatalf("%d×%d: manifest at %d steps, %d time ranks; want %d, %d",
					row.pt, row.ps, gl.StepsDone, gl.TimeRanks, c.steps, c.timeRanks)
			}
		}

		rcfg := chaosConfig(2, row.ps)
		rcfg.Resilience.CheckpointDir = saved
		rcfg.Resilience.Resume = true
		want, _, err := RunSpaceTime(rcfg, sys, 0, 0.2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Particles {
			if out.Particles[i] != want.Particles[i] {
				t.Fatalf("%d×%d: particle %d: the crashed run's tail differs from resuming its manifest on 2×%d",
					row.pt, row.ps, i, row.ps)
			}
		}
	}
}

// TestFacadeCrashTailGuardRedo: the tail block meets the guard like
// every other block. A seeded block-domain flip that lands in the tail
// alone (block 2, first attempt) is detected, the tail is redone once
// from its committed start state, and the run ends bitwise where the
// unguarded crash run ends.
func TestFacadeCrashTailGuardRedo(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	cfg := chaosConfig(4, 1)
	cfg.Resilience.FaultPlan = "crash=1@iter:1"
	want, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}

	// The first seed whose flips hit block 2's first attempt and no
	// other attempt the run makes (blocks 0 and 1 commit at attempt 0,
	// the tail's redo is attempt 1).
	const spec = "rate=2e-3,in=block,bits=62-62"
	flips := func(m *fault.MemPlan, block, attempt int) int {
		return m.FlipWords(fault.MemBlock, uint64(block), attempt, make([]float64, 6*sys.N()))
	}
	seed := int64(0)
	for s := int64(1); seed == 0 && s < 1000; s++ {
		m, err := fault.ParseMem(spec, s)
		if err != nil {
			t.Fatal(err)
		}
		if flips(m, 0, 0) == 0 && flips(m, 1, 0) == 0 && flips(m, 2, 0) > 0 && flips(m, 2, 1) == 0 {
			seed = s
		}
	}
	if seed == 0 {
		t.Fatal("no seed flips the tail alone")
	}

	cfg.Guard.Enabled = true
	cfg.Guard.FlipPlan, cfg.Guard.FlipSeed = spec, seed
	cfg.Telemetry = true
	var mu sync.Mutex
	var seen []int
	cfg.OnBlock = func(b int) {
		mu.Lock()
		seen = append(seen, b)
		mu.Unlock()
	}
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 8)
	if err != nil {
		t.Fatalf("guarded tail: %v", err)
	}
	// Block 0 twice (the crash), block 1 once, the tail twice (the flip).
	if !reflect.DeepEqual(seen, []int{0, 0, 1, 2, 2}) {
		t.Fatalf("hook saw blocks %v, want [0 0 1 2 2]", seen)
	}
	if stats.Run.Counter(guard.CounterDetected) == 0 || stats.Run.Counter(guard.CounterRedo) == 0 {
		t.Fatalf("flip in the tail: %d detected, %d redone", stats.Run.Counter(guard.CounterDetected), stats.Run.Counter(guard.CounterRedo))
	}
	for i := range want.Particles {
		if out.Particles[i] != want.Particles[i] {
			t.Fatalf("particle %d: the redone tail differs from the unguarded crash run", i)
		}
	}
}

// TestFacadeGridCheckpointResumeAcrossPS: a grid checkpoint written at
// PS=2 resumes onto a PS=3 run — restore re-decomposes the full state
// onto whatever width the resuming run has (the same code path crash
// recovery uses). A resume whose checkpoint already covers every step
// must return the checkpointed state unchanged.
func TestFacadeGridCheckpointResumeAcrossPS(t *testing.T) {
	sys := RandomBlob(33, 0.2, 7) // not divisible by 2 or 3: uneven shares
	dir := t.TempDir()

	cfg := chaosConfig(2, 2)
	cfg.Resilience.CheckpointDir = dir
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 4); err != nil {
		t.Fatal(err)
	}

	// Resume the second half on a grid with a different spatial width.
	cfg = chaosConfig(2, 3)
	cfg.Resilience.CheckpointDir = dir
	cfg.Resilience.Resume = true
	out, _, err := RunSpaceTime(cfg, sys, 0, 0.4, 8)
	if err != nil {
		t.Fatalf("resume onto PS=3 failed: %v", err)
	}
	full, _, err := RunSpaceTime(chaosConfig(2, 2), sys, 0, 0.4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxPosDev(full, out); d > gridDeviation {
		t.Fatalf("PS-crossing resume diverges by %g", d)
	}

	// Already-complete resume: the checkpoint written by the resumed
	// run covers all 8 steps, so this run executes zero blocks and must
	// still hand back the checkpointed state (bitwise vs the run that
	// wrote it).
	cfg = chaosConfig(2, 2)
	cfg.Resilience.CheckpointDir = dir
	cfg.Resilience.Resume = true
	same, _, err := RunSpaceTime(cfg, sys, 0, 0.4, 8)
	if err != nil {
		t.Fatalf("no-op resume failed: %v", err)
	}
	for i := range out.Particles {
		if out.Particles[i] != same.Particles[i] {
			t.Fatalf("no-op resume changed particle %d", i)
		}
	}
}
