package nbody

// Facade-level chaos tests: the full space-time solver (parallel trees
// + PFASST) under seeded fault plans. Transient plans must be bitwise
// invisible; a planned rank crash must complete degraded within
// tolerance, with or without receive deadlines; misconfigurations must
// be rejected up front.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
)

func chaosConfig(pt, ps int) SpaceTimeConfig {
	cfg := DefaultSpaceTime(pt, ps)
	cfg.Resilience.RecvTimeout = DefaultRecvTimeout
	return cfg
}

func TestFacadeResilientMatchesPlain(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	plain, _, err := RunSpaceTime(DefaultSpaceTime(4, 1), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunSpaceTime(chaosConfig(4, 1), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Particles {
		if plain.Particles[i] != res.Particles[i] {
			t.Fatalf("resilient path changed particle %d without any faults", i)
		}
	}
}

func TestFacadeTransientChaosBitwise(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(2, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(2, 2)
	cfg.Resilience.FaultPlan = "drop=0.08,delay=0.15:30us,corrupt=0.04"
	cfg.Resilience.FaultSeed = 11
	cfg.Telemetry = true
	chaos, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Particles {
		if clean.Particles[i] != chaos.Particles[i] {
			t.Fatalf("transient chaos changed particle %d", i)
		}
	}
	if stats.Run.Counter("fault.injected") == 0 {
		t.Fatal("no faults recorded despite a lossy plan")
	}
	if stats.Run.Counter("fault.recovered") == 0 {
		t.Fatal("no transport recoveries recorded")
	}
}

func TestFacadeCrashRecovery(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(4, 1), sys, 0, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(4, 1)
	cfg.Resilience.FaultPlan = "crash=1@iter:1"
	cfg.Telemetry = true
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 8)
	if err != nil {
		t.Fatalf("crash was not survived: %v", err)
	}
	if stats.Run.Counter("fault.degraded_blocks") == 0 {
		t.Fatal("no degraded blocks recorded after a crash")
	}
	if stats.Run.Counter("pfasst.block_restarts") == 0 {
		t.Fatal("no block restart recorded after a crash")
	}
	// Degraded mode redoes blocks on fewer ranks: not bitwise, but it
	// must stay scientifically consistent with the fault-free result.
	var maxd float64
	for i := range clean.Particles {
		d := clean.Particles[i].Pos.Sub(out.Particles[i].Pos).Norm()
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-4 {
		t.Fatalf("degraded-mode positions diverge by %g", maxd)
	}
}

// TestFacadeCrashContinuesNarrower: losing one of four time ranks
// costs one slice of parallelism, not all of it. After crash=1@iter:1
// the three survivors redo block 0 three steps wide, run a second
// 3-step block, and run the 2-step tail as a block on the first two
// live slices — the counters must show exactly that shape. FinalRanks
// = 3 is asserted where pfasst.Result is visible (internal/core's
// TestCrashRecoveryCompletesDegraded).
func TestFacadeCrashContinuesNarrower(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(4, 1), sys, 0, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(4, 1)
	cfg.Resilience.FaultPlan = "crash=1@iter:1"
	cfg.Telemetry = true
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 8)
	if err != nil {
		t.Fatalf("crash was not survived: %v", err)
	}
	if d := maxPosDev(clean, out); d > 1e-4 {
		t.Fatalf("degraded-mode positions diverge by %g", d)
	}
	// Every survivor commits the two 3-step blocks; two of them the
	// tail as well.
	const survivors, blocks, tailRanks = 3, 2, 2
	const records = survivors*blocks + tailRanks
	for _, want := range []struct {
		counter string
		n       int64
	}{
		{"pfasst.blocks", records},
		{"pfasst.shrinks", survivors},
		{"pfasst.block_restarts", survivors},
		{"fault.degraded_blocks", survivors * (blocks + 1)},
	} {
		if got := stats.Run.Counter(want.counter); got != want.n {
			t.Errorf("%s = %d, want %d", want.counter, got, want.n)
		}
	}
	// 2 iterations + the trailing sweep per committed block record, and
	// at most one aborted 4-wide attempt's worth on top per survivor.
	committed := int64(records * 3)
	if got := stats.Run.Counter("pfasst.fine_sweeps"); got < committed || got > committed+survivors*3 {
		t.Errorf("pfasst.fine_sweeps = %d, want %d plus at most %d from the aborted attempt", got, committed, survivors*3)
	}
}

func TestFacadeRejectsBadResilienceConfigs(t *testing.T) {
	// A crash plan needs no receive deadlines: every run goes through
	// the one block loop, whose plain link fails fast on the dead peer.
	// The 4×1 mid-block crash must land on the hash pinned for it in
	// TestResilientPinnedAcrossCommits.
	cfg := DefaultSpaceTime(4, 1)
	cfg.Resilience.FaultPlan = "crash=1@iter:1"
	out, _, err := RunSpaceTime(cfg, RandomBlob(48, 0.2, 7), 0, 0.2, 8)
	if err != nil {
		t.Fatalf("crash plan without a RecvTimeout not survived: %v", err)
	}
	if got, want := stateHash(out), uint64(0x55421299943747ba); runtime.GOARCH == "amd64" && got != want {
		t.Fatalf("crash plan without a RecvTimeout: hash %#x, want %#x", got, want)
	}
	sys := RandomBlob(16, 0.2, 7)
	// Crash recovery at PS>1 used to be rejected; the grid loop
	// (spatial shrink + re-decomposition) accepts and survives it.
	cfg = chaosConfig(2, 2)
	cfg.Resilience.FaultPlan = "crash=0@block:0"
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err != nil {
		t.Fatalf("crash plan with PS>1 no longer supported: %v", err)
	}
	// The guard layer composes with crash recovery at any PS:
	// corruption and crash verdicts share the per-block grid agreement.
	cfg = chaosConfig(2, 2)
	cfg.Guard.Enabled = true
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err != nil {
		t.Fatalf("guard + resilience with PS>1 no longer supported: %v", err)
	}
	// Malformed plan strings are reported, not ignored.
	cfg = chaosConfig(2, 1)
	cfg.Resilience.FaultPlan = "bogus=1"
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err == nil {
		t.Fatal("malformed fault plan accepted")
	}
	// So is a crash that could never fire: a rank the grid does not
	// have, a phase no fault point passes. Either would run clean.
	for _, plan := range []string{"crash=4@iter:1", "crash=1@bogus:0"} {
		cfg = chaosConfig(2, 2)
		cfg.Resilience.FaultPlan = plan
		if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err == nil {
			t.Errorf("fault plan %q on a 2×2 grid accepted", plan)
		}
	}
}

// TestFacadeRejectsIgnoredResilienceSettings: a resume request without
// a directory is a configuration error, not a run from t0. A directory
// needs no RecvTimeout: the plain-link run writes a manifest,
// and resuming it finishes bitwise equal to the uninterrupted run.
func TestFacadeRejectsIgnoredResilienceSettings(t *testing.T) {
	sys := RandomBlob(16, 0.2, 7)
	cfg := DefaultSpaceTime(2, 1)
	cfg.Resilience = ResilienceConfig{RecvTimeout: DefaultRecvTimeout, Resume: true}
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err == nil || !strings.Contains(err.Error(), "without Resilience.CheckpointDir") {
		t.Errorf("resume without dir: err = %v", err)
	}

	want, _, err := RunSpaceTime(DefaultSpaceTime(2, 1), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resilience = ResilienceConfig{CheckpointDir: t.TempDir()}
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err != nil {
		t.Fatal(err)
	}
	gl, err := checkpoint.LoadGrid(cfg.Resilience.CheckpointDir)
	if err != nil || gl.StepsDone != 2 {
		t.Fatalf("dir without Enabled: manifest %+v, err %v; want 2 steps done", gl, err)
	}
	cfg.Resilience.Resume = true
	got, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Particles {
		if want.Particles[i] != got.Particles[i] {
			t.Fatalf("resume without Enabled differs from the uninterrupted run at particle %d", i)
		}
	}
}

// TestFacadeCancelAtBlockBoundary drives cancellation through the one
// grid loop on both links: the plain link (alone and guarded) and the
// deadline link (at PS = 1 and PS = 2, alone and with the guard) call
// the one block-boundary callback, so an OnBlock hook that cancels
// the context at block 1 must stop each of them at exactly that
// boundary — typed, on every rank, having reported blocks 0 and 1 once
// each — and, where a checkpoint covers the committed state, a resumed
// run must finish bitwise equal to one that was never canceled.
func TestFacadeCancelAtBlockBoundary(t *testing.T) {
	sys := RandomBlob(32, 0.2, 7)
	const nsteps = 6 // 3 blocks at PT = 2
	for _, row := range []struct {
		name               string
		ps                 int
		guarded, resilient bool
	}{
		{"plain 2x2", 2, false, false},
		{"guarded 2x2", 2, true, false},
		{"resilient 2x1", 1, false, true},
		{"resilient 2x2", 2, false, true},
		{"guard+resilient 2x2", 2, true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultSpaceTime(2, row.ps)
			cfg.Guard.Enabled = row.guarded
			if row.resilient {
				cfg.Resilience.RecvTimeout = DefaultRecvTimeout
			}
			want, _, err := RunSpaceTime(cfg, sys, 0, 0.15, nsteps)
			if err != nil {
				t.Fatal(err)
			}

			if row.resilient {
				cfg.Resilience.CheckpointDir = t.TempDir()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			var seen []int
			cfg.OnBlock = func(b int) {
				mu.Lock()
				seen = append(seen, b)
				mu.Unlock()
				if b == 1 {
					cancel()
				}
			}
			_, _, err = RunSpaceTimeCtx(ctx, cfg, sys, 0, 0.15, nsteps)
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run returned %v, want ErrCanceled wrapping context.Canceled", err)
			}
			if !reflect.DeepEqual(seen, []int{0, 1}) {
				t.Fatalf("hook saw blocks %v, want [0 1]", seen)
			}
			if !row.resilient {
				return
			}

			cfg.OnBlock = nil
			cfg.Resilience.Resume = true
			got, _, err := RunSpaceTime(cfg, sys, 0, 0.15, nsteps)
			if err != nil {
				t.Fatalf("resume after cancel: %v", err)
			}
			for i := range want.Particles {
				if want.Particles[i] != got.Particles[i] {
					t.Fatalf("resumed run differs from the uncanceled one at particle %d", i)
				}
			}
		})
	}
}
