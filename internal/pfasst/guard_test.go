package pfasst_test

import (
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
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
// The ladder is the attempt's, so it climbs identically under the
// lockstep loop (the oscillator on pfasst.Run) and under the resilient
// one (the blob on core's grid loop, 4×1), where the guard verdict
// folds into the block agreement and the retry budget is
// MaxBlockRetries.
func TestGuardedBlockRedoRecovers(t *testing.T) {
	const p, nsteps = 4, 8
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	cfg := Config{Levels: twoLevel(sys), Iterations: 8, CoarseSweeps: 2}
	wantOsc, _ := runPFASST(t, sys, cfg, p, 2, nsteps, u0)

	grid := gridCfg(p)
	grid.Iterations = 8
	grid.Resilience.MaxBlockRetries = 8
	clean, err := runGrid(grid, nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}

	for _, row := range []struct {
		name string
		// Only exponent-raising flips are reliably visible to the
		// max-abs scan on O(1) values; bit 62 turns any such value into
		// ~1e300 or Inf. The rate is per word: 2 words per oscillator
		// state, 288 per blob state.
		flips string
		want  []float64
		// run returns the last rank's Result and the counters summed
		// over the ranks.
		run func(pol guard.Policy) (Result, telemetry.Snapshot, error)
	}{
		{"lockstep", "rate=0.05,in=block,bits=62-62", wantOsc, func(pol guard.Policy) (Result, telemetry.Snapshot, error) {
			reg := telemetry.New()
			res, err := guardedResult(p, cfg, pol, reg, 2, nsteps, u0)
			return res, reg.Snapshot(), err
		}},
		{"resilient", "rate=1e-3,in=block,bits=62-62", clean[p-1].PFASST.U, func(pol guard.Policy) (Result, telemetry.Snapshot, error) {
			gcfg := grid
			gcfg.Guard = pol
			ranks, err := runGrid(gcfg, nil, nsteps)
			if err != nil {
				return Result{}, telemetry.Snapshot{}, err
			}
			var sum telemetry.Snapshot
			for _, r := range ranks {
				sum.Merge(r.tel)
			}
			return ranks[p-1].PFASST, sum, nil
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			detTotal, redoTotal := int64(0), int64(0)
			for seed := int64(0); seed < 24; seed++ {
				mem, err := fault.ParseMem(row.flips, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, s, err := row.run(guard.Policy{Enabled: true, Mem: mem, MaxRecompute: 8})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				detTotal += s.Counters[guard.CounterDetected]
				redoTotal += s.Counters[guard.CounterRedo]
				if d := ode.MaxDiff(got.U, row.want); d > 1e-6 {
					t.Fatalf("seed %d: recovered run deviates %g from clean run", seed, d)
				}
				if s.Counters[guard.CounterRedo] == 0 && !bitwiseEq(got.U, row.want) {
					t.Fatalf("seed %d: no redo yet answer differs bitwise", seed)
				}
				if det, rec := s.Counters[guard.CounterDetected], s.Counters[guard.CounterRecovered]; det != rec {
					t.Fatalf("seed %d: detected %d != recovered %d", seed, det, rec)
				}
				if (s.Counters[guard.CounterDetected] > 0) != (s.Counters[guard.CounterRedo] > 0) {
					t.Fatalf("seed %d: detected %d flips but counted %d redos", seed,
						s.Counters[guard.CounterDetected], s.Counters[guard.CounterRedo])
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
}

// writeGuardCheckpoint commits a one-column grid checkpoint (2 of 4
// steps done on two time ranks) that stores state u with the guard's
// invariant diagnostics of state diagOf.
func writeGuardCheckpoint(t *testing.T, dir string, u, diagOf []float64) {
	t.Helper()
	g := guard.New(guard.Policy{Enabled: true}, 0, nil)
	diag := g.CheckpointDiag(diagOf)
	if len(diag) == 0 {
		t.Fatal("CheckpointDiag returned no invariants for a packed particle state")
	}
	st := &checkpoint.LevelState{Block: 1, StepsDone: 2, TimeRanks: 2, T: 2 * blobDT, U: [][]float64{u}}
	if err := checkpoint.SaveGridShard(dir, 0, st); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.CommitGridManifest(dir, &checkpoint.GridState{
		Block: 1, StepsDone: 2, TimeRanks: 2, SpaceRanks: 1, T: st.T, Dims: []int{len(u)}, Diag: diag,
	}); err != nil {
		t.Fatal(err)
	}
}

// Satellite: -resume must reject a checkpoint whose body was corrupted
// *before* the file checksums were computed (every checksum of shard
// and manifest is valid), because the stored invariants no longer
// match the state.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	u0 := blob().PackNew()
	run := func(dir string) error {
		cfg := gridCfg(2)
		cfg.Guard = guard.Policy{Enabled: true}
		cfg.Resilience.CheckpointDir = dir
		cfg.Resilience.Resume = true
		_, err := runGrid(cfg, nil, 4)
		return err
	}

	t.Run("clean checkpoint resumes", func(t *testing.T) {
		dir := t.TempDir()
		writeGuardCheckpoint(t, dir, u0, u0)
		if err := run(dir); err != nil {
			t.Fatalf("clean resume failed: %v", err)
		}
	})

	t.Run("body flip past the CRC is rejected", func(t *testing.T) {
		dir := t.TempDir()
		// Flip the top mantissa bit of the first circulation word:
		// finite, plausible, but invariant-breaking.
		flipped := append([]float64(nil), u0...)
		flipped[3] = math.Float64frombits(math.Float64bits(flipped[3]) ^ (1 << 51))
		writeGuardCheckpoint(t, dir, flipped, u0)
		err := run(dir)
		if err == nil {
			t.Fatal("resume accepted a checkpoint with corrupted body")
		}
		var v *guard.Violation
		if !errors.As(err, &v) {
			t.Fatalf("rejection is not a typed *guard.Violation: %v", err)
		}
		if !errors.Is(err, guard.ErrCorrupt) {
			t.Fatalf("rejection does not wrap guard.ErrCorrupt: %v", err)
		}
		if !strings.Contains(err.Error(), "resume rejected") {
			t.Fatalf("rejection does not name the resume path: %v", err)
		}
	})

	t.Run("flip caught by file checksum is a typed error", func(t *testing.T) {
		dir := t.TempDir()
		writeGuardCheckpoint(t, dir, u0, u0)
		path := checkpoint.ShardPath(dir, 1, 0)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[60] ^= 0x10 // body flip, checksums left stale
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		err = run(dir)
		if err == nil {
			t.Fatal("resume accepted a checkpoint failing its checksum")
		}
		if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), "resume") {
			t.Fatalf("corrupt-file error is not typed or does not name the resume path: %v", err)
		}
	})
}
