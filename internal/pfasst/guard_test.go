package pfasst_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/mpi"
	"repro/internal/ode"
	. "repro/internal/pfasst"
	"repro/internal/telemetry"
)

// guardedRun executes a guarded PFASST solve on p ranks, building one
// Guard per rank (guards carry per-rank shadow state and must not be
// shared across the simulated ranks), and returns the last rank's
// final state.
func guardedRun(p int, base Config, pol guard.Policy, reg *telemetry.Registry, t1 float64, nsteps int, u0 []float64) ([]float64, error) {
	res, err := guardedResult(p, base, pol, reg, t1, nsteps, u0)
	return res.U, err
}

// guardedResult is guardedRun returning the last rank's whole Result.
// A policy that is not Enabled runs without a guard (Config.Guard nil).
func guardedResult(p int, base Config, pol guard.Policy, reg *telemetry.Registry, t1 float64, nsteps int, u0 []float64) (Result, error) {
	var out Result
	err := mpi.Run(p, func(c *mpi.Comm) error {
		cfg := base
		if pol.Enabled {
			cfg.Guard = guard.New(pol, c.Rank(), reg)
		}
		res, err := Run(c, cfg, 0, t1, nsteps, u0)
		if err != nil {
			return err
		}
		if c.Rank() == p-1 {
			out = res
		}
		c.Barrier()
		return nil
	})
	return out, err
}

func bitwiseEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The plain solver IS the lockstep loop with a nil guard, so "guarded
// clean = plain" has to hold for the whole Result, not only U: an
// enabled guard with no fault plan only observes, and a nil guard runs
// the same messages and the same arithmetic (the nil row: every Guard
// method is a no-op and registers no counter).
func TestGuardedCleanBitwise(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 8
	cfg := Config{Levels: twoLevel(sys), Iterations: 6, CoarseSweeps: 2}

	want, wantRes := runPFASST(t, sys, cfg, p, 2, nsteps, u0)

	for _, row := range []struct {
		name string
		pol  guard.Policy
	}{
		{"nil guard", guard.Policy{}},
		{"clean guard", guard.Policy{Enabled: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			reg := telemetry.New()
			got, err := guardedResult(p, cfg, row.pol, reg, 2, nsteps, u0)
			if err != nil {
				t.Fatal(err)
			}
			if !bitwiseEq(got.U, want) {
				t.Fatalf("run differs bitwise from plain run: %v vs %v", got.U, want)
			}
			if !reflect.DeepEqual(got, wantRes) {
				t.Fatalf("Result differs from plain run:\n got %+v\nwant %+v", got, wantRes)
			}
			if len(got.Residuals) != nsteps/p {
				t.Fatalf("%d block records for %d blocks", len(got.Residuals), nsteps/p)
			}
			s := reg.Snapshot()
			for _, c := range []string{guard.CounterDetected, guard.CounterInjected, guard.CounterRollback, guard.CounterRedo, guard.CounterAborts} {
				if s.Counters[c] != 0 {
					t.Errorf("clean run incremented %s = %d", c, s.Counters[c])
				}
			}
			if !row.pol.Enabled && len(s.Counters) != 0 {
				t.Errorf("nil guard touched the registry: %v", s.Counters)
			}
		})
	}
}

// Transient bit flips in the block-start state are caught by the
// checksum scrub and rolled back from the shadow copy, leaving the
// final answer bitwise identical to the clean run.
func TestGuardedStateFlipsRecovered(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 8
	cfg := Config{Levels: twoLevel(sys), Iterations: 6, CoarseSweeps: 2}
	want, _ := runPFASST(t, sys, cfg, p, 2, nsteps, u0)

	injTotal := int64(0)
	for seed := int64(0); seed < 24; seed++ {
		// The state has only 2 words, so a fat per-word rate is needed
		// to see flips at all; recovery converges because transient
		// flips re-roll per rollback attempt.
		mem, err := fault.ParseMem("rate=0.1,in=state", seed)
		if err != nil {
			t.Fatal(err)
		}
		pol := guard.Policy{Enabled: true, Mem: mem, MaxRollback: 8}
		reg := telemetry.New()
		got, err := guardedRun(p, cfg, pol, reg, 2, nsteps, u0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bitwiseEq(got, want) {
			t.Fatalf("seed %d: recovered run differs bitwise from clean run", seed)
		}
		s := reg.Snapshot()
		injTotal += s.Counters[guard.CounterInjected]
		if det, rec := s.Counters[guard.CounterDetected], s.Counters[guard.CounterRecovered]; det != rec {
			t.Fatalf("seed %d: detected %d != recovered %d", seed, det, rec)
		}
		if s.Counters[guard.CounterDetected] < s.Counters[guard.CounterInjected] {
			t.Fatalf("seed %d: detected %d < injected %d (silent corruption)",
				seed, s.Counters[guard.CounterDetected], s.Counters[guard.CounterInjected])
		}
	}
	if injTotal == 0 {
		t.Fatal("no flips injected across any seed; test exercised nothing")
	}
}

// A sticky flip reappears after every rollback, so the ladder must
// exhaust and abort with a typed Violation — never a wrong answer.
func TestGuardedStickyAborts(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 8
	cfg := Config{Levels: twoLevel(sys), Iterations: 6, CoarseSweeps: 2}
	want, _ := runPFASST(t, sys, cfg, p, 2, nsteps, u0)

	aborts := 0
	for seed := int64(0); seed < 8; seed++ {
		mem, err := fault.ParseMem("rate=0.5,in=state,sticky", seed)
		if err != nil {
			t.Fatal(err)
		}
		pol := guard.Policy{Enabled: true, Mem: mem}
		reg := telemetry.New()
		got, err := guardedRun(p, cfg, pol, reg, 2, nsteps, u0)
		if err == nil {
			// The seed happened to plan no flips: the run must then be
			// bitwise clean. Silent wrong answers are the one forbidden
			// outcome.
			if !bitwiseEq(got, want) {
				t.Fatalf("seed %d: no error but corrupted answer", seed)
			}
			continue
		}
		aborts++
		var v *guard.Violation
		if !errors.As(err, &v) {
			t.Fatalf("seed %d: abort error is not a *guard.Violation: %v", seed, err)
		}
		if !errors.Is(err, guard.ErrCorrupt) {
			t.Fatalf("seed %d: abort error does not wrap guard.ErrCorrupt: %v", seed, err)
		}
		if v.Monitor == "" {
			t.Fatalf("seed %d: violation has empty monitor name", seed)
		}
		if s := reg.Snapshot(); s.Counters[guard.CounterAborts] == 0 {
			t.Fatalf("seed %d: typed abort without %s increment", seed, guard.CounterAborts)
		}
	}
	if aborts == 0 {
		t.Fatal("no seed produced a sticky abort; rate too low to exercise the ladder")
	}
}

// Flips injected into the block-end buffer trigger a collective block
// redo; transient flips re-roll, so the redo converges and the answer
// stays within the degraded tolerance of the clean run (extra SDC
// sweeps from attempt 2 onward may perturb it below solver accuracy).
// This is the lockstep row (the oscillator on Run); the same ladder
// under the resilient grid loop is the test of the same name in
// internal/core.
func TestGuardedBlockRedoRecovers(t *testing.T) {
	const p, nsteps = 4, 8
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	cfg := Config{Levels: twoLevel(sys), Iterations: 8, CoarseSweeps: 2}
	want, _ := runPFASST(t, sys, cfg, p, 2, nsteps, u0)
	t.Run("lockstep", func(t *testing.T) {
		detTotal, redoTotal := int64(0), int64(0)
		for seed := int64(0); seed < 24; seed++ {
			// Only exponent-raising flips are reliably visible to the
			// max-abs scan on O(1) values; bit 62 turns any such value
			// into ~1e300 or Inf. The rate is per word, 2 words per
			// oscillator state.
			mem, err := fault.ParseMem("rate=0.05,in=block,bits=62-62", seed)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New()
			got, err := guardedResult(p, cfg, guard.Policy{Enabled: true, Mem: mem, MaxRecompute: 8}, reg, 2, nsteps, u0)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			s := reg.Snapshot()
			det, redo := s.Counters[guard.CounterDetected], s.Counters[guard.CounterRedo]
			detTotal += det
			redoTotal += redo
			if d := ode.MaxDiff(got.U, want); d > 1e-6 {
				t.Fatalf("seed %d: recovered run deviates %g from clean run", seed, d)
			}
			if redo == 0 && !bitwiseEq(got.U, want) {
				t.Fatalf("seed %d: no redo yet answer differs bitwise", seed)
			}
			if rec := s.Counters[guard.CounterRecovered]; det != rec {
				t.Fatalf("seed %d: detected %d != recovered %d", seed, det, rec)
			}
			if (det > 0) != (redo > 0) {
				t.Fatalf("seed %d: detected %d flips but counted %d redos", seed, det, redo)
			}
			// A redone block leaves exactly one record behind.
			if len(got.Residuals) != nsteps/p || len(got.IterDiffs) != nsteps/p || len(got.IterationsRun) != nsteps/p {
				t.Fatalf("seed %d: %d/%d/%d block records for %d blocks", seed,
					len(got.Residuals), len(got.IterDiffs), len(got.IterationsRun), nsteps/p)
			}
		}
		if detTotal == 0 || redoTotal == 0 {
			t.Fatalf("no block-end flip detected (%d) or redone (%d) across any seed", detTotal, redoTotal)
		}
	})
}
