package pfasst

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/ode"
)

// runResilientPFASST runs a resilient solve under a fault plan and
// returns each rank's Result (nil entries for ranks that died or
// errored) plus the joined run error.
func runResilientPFASST(t *testing.T, cfg Config, pol mpi.FaultPolicy, p int, t1 float64, nsteps int, u0 []float64) ([]*Result, error) {
	t.Helper()
	results := make([]*Result, p)
	_, err := mpi.RunOpts(p, mpi.Options{Fault: pol}, func(c *mpi.Comm) error {
		res, err := Run(c, cfg, 0, t1, nsteps, u0)
		if err != nil {
			return err
		}
		results[c.Rank()] = &res
		return nil
	})
	return results, err
}

func resilientCfg(sys ode.System) Config {
	return Config{
		Levels:       twoLevel(sys),
		Iterations:   8,
		CoarseSweeps: 2,
		Resilience: Resilience{
			Enabled:     true,
			RecvTimeout: 5 * time.Second,
		},
	}
}

// TestResilientMatchesPlainWithoutFaults: with no fault plan, the
// resilient loop (deadline link, generation tags, agreement commits)
// must reproduce the lockstep loop bitwise on every rank — same block
// body, same sweeps, same per-block records; only the message plumbing
// differs. The Tol row sets the deadline allreduce against the tree
// allreduce (same early stop, same IterationsRun), the three-level row
// covers the intermediate-level receives.
func TestResilientMatchesPlainWithoutFaults(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 8
	threeLevel := []LevelSpec{{Sys: sys, NNodes: 5}, {Sys: sys, NNodes: 3}, {Sys: sys, NNodes: 2}}

	for _, tc := range []struct {
		name   string
		levels []LevelSpec
		tol    float64
	}{
		{"fixed", twoLevel(sys), 0},
		{"tol", twoLevel(sys), 1e-6},
		{"three-level", threeLevel, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resilientCfg(sys)
			cfg.Levels, cfg.Tol = tc.levels, tc.tol
			plainCfg := cfg
			plainCfg.Resilience = Resilience{}
			want, err := runResilientPFASST(t, plainCfg, nil, p, 2, nsteps, u0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runResilientPFASST(t, cfg, nil, p, 2, nsteps, u0)
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				w, g := want[r], got[r]
				if w == nil || g == nil {
					t.Fatalf("rank %d returned no result", r)
				}
				if tc.tol > 0 && w.IterationsRun[0] >= cfg.Iterations {
					t.Fatalf("rank %d: Tol %g never stopped a block early: %v", r, tc.tol, w.IterationsRun)
				}
				if !bitwiseEq(g.U, w.U) || !bitwiseEq(g.Residuals, w.Residuals) || !bitwiseEq(g.IterDiffs, w.IterDiffs) {
					t.Fatalf("rank %d: resilient run not bitwise identical to plain:\n got %+v\nwant %+v", r, g, w)
				}
				if !reflect.DeepEqual(g.IterationsRun, w.IterationsRun) || g.SweepsFine != w.SweepsFine || g.SweepsCoarse != w.SweepsCoarse {
					t.Fatalf("rank %d: resilient run did different work:\n got %+v\nwant %+v", r, g, w)
				}
				if len(g.Residuals) != nsteps/p {
					t.Fatalf("rank %d: %d block records for %d blocks", r, len(g.Residuals), nsteps/p)
				}
				if g.BlockRestarts != 0 || g.DegradedBlocks != 0 || g.FinalRanks != p {
					t.Fatalf("rank %d: fault-free run reported faults: %+v", r, g)
				}
			}
		})
	}
}

// TestTransientChaosBitwiseIdentical is the headline chaos property:
// a seeded plan of drops, delays and transport-absorbed corruption is
// swallowed entirely by retry-with-backoff, so the solution must be
// bitwise identical to the fault-free run — only virtual time and the
// fault counters may differ.
func TestTransientChaosBitwiseIdentical(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 8
	cfg := resilientCfg(sys)

	clean, err := runResilientPFASST(t, cfg, nil, p, 2, nsteps, u0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("drop=0.1,delay=0.2:40us,corrupt=0.05", 99)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := runResilientPFASST(t, cfg, plan, p, 2, nsteps, u0)
	if err != nil {
		t.Fatal(err)
	}
	for r := range clean {
		for i := range clean[r].U {
			if clean[r].U[i] != chaos[r].U[i] {
				t.Fatalf("rank %d: transient chaos changed U[%d]: %g vs %g", r, i, chaos[r].U[i], clean[r].U[i])
			}
		}
	}
	// The plain (non-resilient) path must absorb the same plan too.
	plainCfg := Config{Levels: twoLevel(sys), Iterations: 8, CoarseSweeps: 2}
	var plainU []float64
	_, err = mpi.RunOpts(p, mpi.Options{Fault: plan}, func(c *mpi.Comm) error {
		res, err := Run(c, plainCfg, 0, 2, nsteps, u0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			plainU = res.U
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plainU {
		if plainU[i] != clean[0].U[i] {
			t.Fatalf("plain path under transient chaos diverged at U[%d]", i)
		}
	}
}

// TestCrashRecoveryCompletesDegraded kills one time rank mid-block and
// requires the survivors to finish: shrink to p−1, redo the block from
// its consistent start state, and absorb the tail serially — with the
// final answer still within tolerance of the exact solution.
func TestCrashRecoveryCompletesDegraded(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 8
	cfg := resilientCfg(sys)

	plan, err := fault.Parse("crash=1@iter:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runResilientPFASST(t, cfg, plan, p, 2, nsteps, u0)
	if !errors.Is(err, mpi.ErrInjectedCrash) {
		t.Fatalf("run error should be the injected crash, got %v", err)
	}
	if results[1] != nil {
		t.Fatal("crashed rank produced a result")
	}
	var first *Result
	for r, res := range results {
		if r == 1 {
			continue
		}
		if res == nil {
			t.Fatalf("survivor rank %d has no result", r)
		}
		if res.FinalRanks != p-1 {
			t.Fatalf("rank %d: FinalRanks = %d, want %d", r, res.FinalRanks, p-1)
		}
		if res.BlockRestarts < 1 {
			t.Fatalf("rank %d: no block restart recorded", r)
		}
		if res.DegradedBlocks < 1 {
			t.Fatalf("rank %d: no degraded block recorded", r)
		}
		if first == nil {
			first = res
			continue
		}
		for i := range first.U {
			if res.U[i] != first.U[i] {
				t.Fatalf("survivors disagree on U[%d]", i)
			}
		}
	}
	if d := ode.MaxDiff(first.U, exact(2)); d > 1e-5 {
		t.Fatalf("degraded-mode error %g exceeds tolerance", d)
	}
}

func TestCrashAtBlockBoundary(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 8
	cfg := resilientCfg(sys)

	// Rank 3 (the broadcast root) dies right before the second block.
	plan, err := fault.Parse("crash=3@block:4", 7)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runResilientPFASST(t, cfg, plan, p, 2, nsteps, u0)
	if !errors.Is(err, mpi.ErrInjectedCrash) {
		t.Fatalf("want injected crash in run error, got %v", err)
	}
	if results[0] == nil || results[0].FinalRanks != 3 {
		t.Fatalf("survivors did not shrink to 3: %+v", results[0])
	}
	if d := ode.MaxDiff(results[0].U, exact(2)); d > 1e-5 {
		t.Fatalf("degraded-mode error %g", d)
	}
}

// lossPlan drops one specific pipelined message permanently; the
// receive must time out and the block must be retried, not hung.
type lossPlan struct{ hits *int }

func (l lossPlan) Message(src, dst, tag int, seq uint64, size int) mpi.FaultVerdict {
	// Target the first resilient-path payload from rank 0 to rank 1 in
	// generation 0 (tags below resTagBase are collectives/setup).
	if src == 0 && dst == 1 && tag >= resTagBase && tag < resTagBase+resGenSpan && *l.hits == 0 {
		*l.hits++
		return mpi.FaultVerdict{Injected: true, Lost: true}
	}
	return mpi.FaultVerdict{}
}

func (l lossPlan) CrashAt(rank int, phase string, epoch int) bool { return false }

func TestHardLossRetriesBlockBitwise(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 8
	cfg := resilientCfg(sys)
	cfg.Resilience.RecvTimeout = 150 * time.Millisecond

	clean, err := runResilientPFASST(t, cfg, nil, p, 2, nsteps, u0)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	lossy, err := runResilientPFASST(t, cfg, lossPlan{hits: &hits}, p, 2, nsteps, u0)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("loss plan fired %d times", hits)
	}
	for r := range clean {
		if lossy[r].BlockRestarts < 1 {
			t.Fatalf("rank %d: hard loss did not restart the block", r)
		}
		// A rejected attempt leaves no per-block record behind, even on
		// a rank whose own part of it finished (rank 0 only sends).
		if l := lossy[r]; len(l.Residuals) != nsteps/p || len(l.IterDiffs) != nsteps/p || len(l.IterationsRun) != nsteps/p {
			t.Fatalf("rank %d: %d/%d/%d block records for %d committed blocks",
				r, len(l.Residuals), len(l.IterDiffs), len(l.IterationsRun), nsteps/p)
		}
		for i := range clean[r].U {
			if clean[r].U[i] != lossy[r].U[i] {
				t.Fatalf("rank %d: retried run diverged at U[%d]", r, i)
			}
		}
	}
}

// TestLeakCorruptionTypedFailure: when every payload arrives torn, the
// checked decoders must surface typed errors and the run must give up
// after the retry budget — an error return on every rank, never a
// panic or a hang.
func TestLeakCorruptionTypedFailure(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	cfg := resilientCfg(sys)
	cfg.Resilience.RecvTimeout = 200 * time.Millisecond
	cfg.Resilience.MaxBlockRetries = 2

	plan, err := fault.Parse("corrupt=1:leak", 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runResilientPFASST(t, cfg, plan, 4, 2, 8, u0)
	if err == nil {
		t.Fatal("universally torn payloads reported success")
	}
	if errors.Is(err, mpi.ErrInjectedCrash) {
		t.Fatalf("no crash was planned: %v", err)
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("error does not mention exhausted retries: %v", err)
	}
}

// TestCheckpointResumeBitwise: a run that resumes from a mid-run block
// checkpoint must land on bitwise the same answer as the uninterrupted
// run, and resuming from a completed checkpoint must return instantly
// with the stored state.
func TestCheckpointResumeBitwise(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p = 4
	dir := t.TempDir()

	cfg := resilientCfg(sys)
	cfg.Resilience.CheckpointDir = dir

	// Uninterrupted 12-step reference, writing checkpoints as it goes.
	full, err := runResilientPFASST(t, cfg, nil, p, 3, 12, u0)
	if err != nil {
		t.Fatal(err)
	}

	// The final checkpoint records all 12 steps: a resume runs zero
	// blocks and must return the stored state verbatim.
	cfg.Resilience.Resume = true
	resumed, err := runResilientPFASST(t, cfg, nil, p, 3, 12, u0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full[0].U {
		if resumed[0].U[i] != full[0].U[i] {
			t.Fatalf("completed-checkpoint resume changed U[%d]", i)
		}
	}

	// Now simulate an interruption: rewrite the checkpoint to the
	// 8-step state (2 of 3 blocks), resume, and require the final
	// answer to match the uninterrupted run bitwise.
	dir2 := t.TempDir()
	cfg8 := resilientCfg(sys)
	cfg8.Resilience.CheckpointDir = dir2
	// 8 steps at the same dt: t1 = 2 of the 12-step run over [0,3].
	if _, err := runResilientPFASST(t, cfg8, nil, p, 2, 8, u0); err != nil {
		t.Fatal(err)
	}
	cfg8.Resilience.Resume = true
	cont, err := runResilientPFASST(t, cfg8, nil, p, 3, 12, u0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full[0].U {
		if cont[0].U[i] != full[0].U[i] {
			t.Fatalf("resumed run diverged from uninterrupted run at U[%d]", i)
		}
	}
	_ = exact
}
