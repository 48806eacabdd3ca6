package core

// The guard ladder — state scrub and rollback, block-end redo, typed
// abort — and the guarded resume, through the grid loop on the blob of
// blockattempt_test.go.

import (
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/mpi"
	"repro/internal/ode"
	"repro/internal/telemetry"
)

// TestGuardedCleanBitwise: an enabled guard with no fault plan only
// observes, and a nil guard runs the same messages and the same
// arithmetic, so "guarded clean = plain" has to hold for the whole
// pfasst.Result, not only U. The nil row also checks that no guard
// counter is registered at all.
func TestGuardedCleanBitwise(t *testing.T) {
	const p, nsteps = 4, 8
	want, err := runBlob(Default(p, 1), nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		pol  guard.Policy
	}{
		{"nil guard", guard.Policy{}},
		{"clean guard", guard.Policy{Enabled: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := Default(p, 1)
			cfg.Guard = row.pol
			got, err := runBlob(cfg, nil, nsteps)
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if !reflect.DeepEqual(got[r].PFASST, want[r].PFASST) {
					t.Fatalf("rank %d: Result differs from the unguarded run:\n got %+v\nwant %+v", r, got[r].PFASST, want[r].PFASST)
				}
				for name, n := range got[r].tel.Counters {
					if strings.HasPrefix(name, "guard.") && (n != 0 || !row.pol.Enabled) {
						t.Errorf("rank %d: clean run registered %s = %d", r, name, n)
					}
				}
			}
		})
	}
}

// TestGuardedStateFlipsRecovered: transient bit flips in the
// block-start state are caught by the checksum scrub and rolled back
// from the shadow copy, leaving the final answer bitwise identical to
// the clean run.
func TestGuardedStateFlipsRecovered(t *testing.T) {
	const p, nsteps = 4, 8
	clean, err := runBlob(Default(p, 1), nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	want := clean[p-1].PFASST.U
	injTotal := int64(0)
	for seed := int64(0); seed < 12; seed++ {
		// 288 words per blob state: about 0.3 flips per scrub, so the
		// rollback, whose flips re-roll, converges.
		mem, err := fault.ParseMem("rate=1e-3,in=state", seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default(p, 1)
		cfg.Guard = guard.Policy{Enabled: true, Mem: mem, MaxRollback: 8}
		ranks, err := runBlob(cfg, nil, nsteps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(ranks[p-1].PFASST.U, want) {
			t.Fatalf("seed %d: recovered run differs bitwise from clean run", seed)
		}
		var s telemetry.Snapshot
		for _, r := range ranks {
			s.Merge(r.tel)
		}
		inj, det := s.Counters[guard.CounterInjected], s.Counters[guard.CounterDetected]
		injTotal += inj
		if rec := s.Counters[guard.CounterRecovered]; det != rec {
			t.Fatalf("seed %d: detected %d != recovered %d", seed, det, rec)
		}
		if det < inj {
			t.Fatalf("seed %d: detected %d < injected %d (silent corruption)", seed, det, inj)
		}
	}
	if injTotal == 0 {
		t.Fatal("no flips injected across any seed; test exercised nothing")
	}
}

// TestGuardedStickyAborts: a sticky flip reappears after every
// rollback, so the ladder must exhaust and abort with a typed
// Violation on every rank — never a wrong answer.
func TestGuardedStickyAborts(t *testing.T) {
	const p, nsteps = 4, 8
	clean, err := runBlob(Default(p, 1), nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	aborts := 0
	for seed := int64(0); seed < 4; seed++ {
		mem, err := fault.ParseMem("rate=2e-3,in=state,sticky", seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default(p, 1)
		cfg.Guard = guard.Policy{Enabled: true, Mem: mem}
		regs := make([]*telemetry.Registry, p)
		out := make([][]float64, p)
		_, err = mpi.RunOpts(p, mpi.Options{}, func(w *mpi.Comm) error {
			rcfg := cfg
			rcfg.Tel = telemetry.New()
			regs[w.Rank()] = rcfg.Tel
			res, err := RunSpaceTime(w, rcfg, blob(), 0, nsteps*blobDT, nsteps)
			out[w.Rank()] = res.PFASST.U
			return err
		})
		if err == nil {
			// The seed planned no flip: the run must then be bitwise
			// clean. Silent wrong answers are the one forbidden outcome.
			for r := range out {
				if !slices.Equal(out[r], clean[r].PFASST.U) {
					t.Fatalf("seed %d rank %d: no error but corrupted answer", seed, r)
				}
			}
			continue
		}
		aborts++
		var v *guard.Violation
		if !errors.As(err, &v) || !errors.Is(err, guard.ErrCorrupt) || v.Monitor == "" {
			t.Fatalf("seed %d: abort is not a typed guard violation wrapping guard.ErrCorrupt: %v", seed, err)
		}
		n := int64(0)
		for _, reg := range regs {
			n += reg.Snapshot().Counters[guard.CounterAborts]
		}
		if n == 0 {
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
// The ladder is the attempt's: it climbs under the grid loop (the blob,
// 4×1, on the deadline link), where the guard verdict folds into the
// block agreement and the retry budget is MaxBlockRetries.
func TestGuardedBlockRedoRecovers(t *testing.T) {
	const p, nsteps = 4, 8
	grid := resilientCfg(p, 1)
	grid.Iterations = 8
	grid.Resilience.MaxBlockRetries = 8
	clean, err := runBlob(grid, nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	want := clean[p-1].PFASST.U
	t.Run("resilient", func(t *testing.T) {
		detTotal, redoTotal := int64(0), int64(0)
		for seed := int64(0); seed < 24; seed++ {
			// Only exponent-raising flips are reliably visible to the
			// max-abs scan on O(1) values; bit 62 turns any such value
			// into ~1e300 or Inf. The rate is per word, 288 words per
			// blob state.
			mem, err := fault.ParseMem("rate=1e-3,in=block,bits=62-62", seed)
			if err != nil {
				t.Fatal(err)
			}
			gcfg := grid
			gcfg.Guard = guard.Policy{Enabled: true, Mem: mem, MaxRecompute: 8}
			ranks, err := runBlob(gcfg, nil, nsteps)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var s telemetry.Snapshot
			for _, r := range ranks {
				s.Merge(r.tel)
			}
			got := ranks[p-1].PFASST
			det, redo := s.Counters[guard.CounterDetected], s.Counters[guard.CounterRedo]
			detTotal += det
			redoTotal += redo
			if d := ode.MaxDiff(got.U, want); d > 1e-6 {
				t.Fatalf("seed %d: recovered run deviates %g from clean run", seed, d)
			}
			if redo == 0 && !slices.Equal(got.U, want) {
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
		cfg := resilientCfg(2, 1)
		cfg.Guard = guard.Policy{Enabled: true}
		cfg.Resilience.CheckpointDir = dir
		cfg.Resilience.Resume = true
		_, err := runBlob(cfg, nil, 4)
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
