package nbody

// Façade-level guardrail tests: configuration validation, zero-impact
// clean runs, and the ladder property — every seeded memory-fault run
// either finishes bitwise identical to the clean run or aborts with a
// typed guard violation. Silent wrong answers are the one forbidden
// outcome.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/guard"
)

func guardConfig(pt int) SpaceTimeConfig {
	cfg := DefaultSpaceTime(pt, 1)
	cfg.Guard.Enabled = true
	return cfg
}

func TestFacadeRejectsBadGuardConfigs(t *testing.T) {
	sys := RandomBlob(16, 0.2, 7)
	// A flip plan without the guard enabled would inject corruption
	// with nothing watching for it: refuse up front.
	cfg := DefaultSpaceTime(2, 1)
	cfg.Guard.FlipPlan = "rate=1e-3,in=state"
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err == nil ||
		!strings.Contains(err.Error(), "without Guard.Enabled") {
		t.Fatalf("flip plan without guard not rejected: %v", err)
	}
	// Guard + deadline receives at PS > 1 was the last rejected
	// combination; the grid loop composes both, so the configuration
	// must run cleanly.
	cfg = DefaultSpaceTime(2, 2)
	cfg.Guard.Enabled = true
	cfg.Resilience.RecvTimeout = DefaultRecvTimeout
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err != nil {
		t.Fatalf("guard + resilience with PS>1 no longer supported: %v", err)
	}
	// A malformed flip spec is a configuration error, not a run error.
	cfg = guardConfig(2)
	cfg.Guard.FlipPlan = "rate=not-a-number"
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err == nil {
		t.Fatal("malformed flip plan not rejected")
	}
}

func TestFacadeGuardCleanBitwise(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	plain, _, err := RunSpaceTime(DefaultSpaceTime(4, 1), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := guardConfig(4)
	cfg.Telemetry = true
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Particles {
		if plain.Particles[i] != out.Particles[i] {
			t.Fatalf("guard observation changed particle %d without any faults", i)
		}
	}
	for _, c := range []string{guard.CounterInjected, guard.CounterDetected,
		guard.CounterRollback, guard.CounterRedo, guard.CounterAborts} {
		if n := stats.Run.Counter(c); n != 0 {
			t.Fatalf("clean guarded run recorded %s = %d", c, n)
		}
	}
}

// TestFacadeGuardSpaceParallelCleanBitwise: the guard layer now
// composes with spatial parallelism — on a PS×PT grid a clean guarded
// run must be bitwise identical to the unguarded run and record no
// detector activity (the spatial agreement rounds and global invariant
// sums observe, never perturb).
func TestFacadeGuardSpaceParallelCleanBitwise(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	plain, _, err := RunSpaceTime(DefaultSpaceTime(2, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSpaceTime(2, 2)
	cfg.Guard.Enabled = true
	// At PS > 1 the invariant monitors compare global sums, whose clean
	// drift includes the decomposition's discretization differences
	// (forced subdivisions at ownership boundaries shift MAC decisions)
	// — loosen the circulation tolerance accordingly (SCALING.md).
	cfg.Guard.CircTol = 1e-4
	cfg.Telemetry = true
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Particles {
		if plain.Particles[i] != out.Particles[i] {
			t.Fatalf("guard observation on PS=2 changed particle %d without any faults", i)
		}
	}
	for _, c := range []string{guard.CounterInjected, guard.CounterDetected,
		guard.CounterRollback, guard.CounterRedo, guard.CounterAborts} {
		if n := stats.Run.Counter(c); n != 0 {
			t.Fatalf("clean guarded PS=2 run recorded %s = %d", c, n)
		}
	}
}

// TestFacadeGuardLadderPropertySpaceTimeGrid is the ladder property on
// the full PS=4×PT=4 grid (the ISSUE 7 acceptance case): every seeded
// flip run either finishes bitwise identical to the clean run —
// detected flips recovered through the collectively agreed redo — or
// aborts with a typed violation wrapping guard.ErrCorrupt. Silent
// wrong answers remain the one forbidden outcome.
func TestFacadeGuardLadderPropertySpaceTimeGrid(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	clean, _, err := RunSpaceTime(DefaultSpaceTime(4, 4), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var injected, detected, recovered, aborted int64
	for seed := int64(0); seed < 8; seed++ {
		cfg := DefaultSpaceTime(4, 4)
		cfg.Guard.Enabled = true
		cfg.Telemetry = true
		// Global-sum invariants drift more at PS > 1 (see the clean
		// bitwise test); detection in this sweep rides on the exact
		// checks (state checksum, tree ABFT), not the physics backstop.
		cfg.Guard.CircTol = 1e-4
		cfg.Guard.FlipPlan = "rate=2e-4,in=state+tree"
		cfg.Guard.FlipSeed = seed
		cfg.Guard.MaxRollback = 8
		cfg.Guard.MaxRecompute = 8
		out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
		if err != nil {
			var v *guard.Violation
			if !errors.As(err, &v) || !errors.Is(err, guard.ErrCorrupt) {
				t.Fatalf("seed %d: error is not a typed guard violation: %v", seed, err)
			}
			aborted++
			continue
		}
		for i := range clean.Particles {
			if clean.Particles[i] != out.Particles[i] {
				t.Fatalf("seed %d: silent corruption: particle %d differs after guarded PS=4×PT=4 run", seed, i)
			}
		}
		injected += stats.Run.Counter(guard.CounterInjected)
		detected += stats.Run.Counter(guard.CounterDetected)
		recovered += stats.Run.Counter(guard.CounterRecovered)
		if d, r := stats.Run.Counter(guard.CounterDetected), stats.Run.Counter(guard.CounterRecovered); d != r {
			t.Fatalf("seed %d: detected %d flips but recovered %d", seed, d, r)
		}
	}
	if injected == 0 {
		t.Fatal("no flips injected across the grid sweep; property exercised nothing")
	}
	t.Logf("grid ladder sweep: injected=%d detected=%d recovered=%d aborted-runs=%d",
		injected, detected, recovered, aborted)
}

// The recovery-ladder property sweep (satellite): across seeds and all
// monitored fault domains, a run that returns without error must be
// bitwise identical to the clean run, and a run that errors must fail
// with a typed *guard.Violation wrapping guard.ErrCorrupt. Detected
// flips are recovered or aborted — never silently absorbed.
func TestFacadeGuardLadderProperty(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	clean, _, err := RunSpaceTime(DefaultSpaceTime(4, 1), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var injected, detected, recovered, aborted int64
	for seed := int64(0); seed < 12; seed++ {
		cfg := guardConfig(4)
		cfg.Telemetry = true
		// Transient flips across both exact-check domains; the rates
		// keep the expected flips per retry well under one so the
		// ladder converges (see the DESIGN notes on rate·words ≪ 1).
		cfg.Guard.FlipPlan = "rate=2e-4,in=state+tree"
		cfg.Guard.FlipSeed = seed
		cfg.Guard.MaxRollback = 8
		cfg.Guard.MaxRecompute = 8
		out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
		if err != nil {
			var v *guard.Violation
			if !errors.As(err, &v) || !errors.Is(err, guard.ErrCorrupt) {
				t.Fatalf("seed %d: error is not a typed guard violation: %v", seed, err)
			}
			aborted++
			continue
		}
		for i := range clean.Particles {
			if clean.Particles[i] != out.Particles[i] {
				t.Fatalf("seed %d: silent corruption: particle %d differs after guarded run", seed, i)
			}
		}
		injected += stats.Run.Counter(guard.CounterInjected)
		detected += stats.Run.Counter(guard.CounterDetected)
		recovered += stats.Run.Counter(guard.CounterRecovered)
		if d, r := stats.Run.Counter(guard.CounterDetected), stats.Run.Counter(guard.CounterRecovered); d != r {
			t.Fatalf("seed %d: detected %d flips but recovered %d", seed, d, r)
		}
	}
	if injected == 0 {
		t.Fatal("no flips injected across the sweep; property exercised nothing")
	}
	if detected < injected {
		t.Fatalf("sweep-wide detected %d < injected %d (missed flips)", detected, injected)
	}
	t.Logf("ladder sweep: injected=%d detected=%d recovered=%d aborted-runs=%d",
		injected, detected, recovered, aborted)
}
