package core

// The resilience contract of the block attempt — deadline link,
// generation tags, typed aborts, committed-block records — tested
// through the one driver that runs it: RunSpaceTime's grid loop on a
// small vortex blob, mostly on PT×1 grids.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/mpi"
	"repro/internal/ode"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/telemetry"
)

// blob is the problem of every grid test here: 48 particles, advanced
// 1/32 per step (a binary fraction, so a run resumed with more steps
// derives bitwise the same dt).
func blob() *particle.System { return particle.RandomVortexBlob(48, 0.2, 7) }

const blobDT = 1.0 / 32

// gridRank is one world rank's outcome of a grid run.
type gridRank struct {
	Result
	tel telemetry.Snapshot
}

// runGrid runs RunSpaceTime over nsteps steps of blobDT under a
// fault plan, every rank on its own registry, and returns each rank's
// outcome (nil entries for ranks that died or errored) plus the joined
// run error.
func runBlob(cfg Config, pol mpi.FaultPolicy, nsteps int) ([]*gridRank, error) {
	full := blob()
	out := make([]*gridRank, cfg.PT*cfg.PS)
	_, err := mpi.RunOpts(len(out), mpi.Options{Fault: pol}, func(w *mpi.Comm) error {
		rcfg := cfg
		rcfg.Tel = telemetry.New()
		res, err := RunSpaceTime(w, rcfg, full, 0, float64(nsteps)*blobDT, nsteps)
		if err != nil {
			return err
		}
		out[w.Rank()] = &gridRank{Result: res, tel: rcfg.Tel.Snapshot()}
		return nil
	})
	return out, err
}

// TestDeadlineLinkMatchesPlainLink: with no fault plan, the grid loop
// on the deadline link (bounded receives, generation tags, linear
// collectives) must reproduce the same loop on the plain link bitwise
// on every rank — same block body, same sweeps, same per-block records;
// only the message plumbing differs. The Tol row sets the deadline
// allreduce against the tree allreduce (same early stop, same
// IterationsRun); the 2×2 and 4×2 rows add spatial columns, and the
// guard row runs the block-end detectors on both links.
func TestDeadlineLinkMatchesPlainLink(t *testing.T) {
	const nsteps = 8

	for _, tc := range []struct {
		name    string
		pt, ps  int
		tol     float64
		guarded bool
	}{
		{"fixed", 4, 1, 0, false},
		{"tol", 4, 1, 1e-7, false},
		{"2x2", 2, 2, 0, false},
		{"4x2", 4, 2, 0, false},
		{"guard", 4, 1, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resilientCfg(tc.pt, tc.ps)
			cfg.Iterations = 8
			cfg.Tol = tc.tol
			cfg.Guard.Enabled = tc.guarded
			plainCfg := cfg
			plainCfg.Resilience = pfasst.Resilience{}
			want, err := runBlob(plainCfg, nil, nsteps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runBlob(cfg, nil, nsteps)
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if want[r] == nil || got[r] == nil {
					t.Fatalf("rank %d returned no result", r)
				}
				w, g := want[r].PFASST, got[r].PFASST
				if tc.tol > 0 && w.IterationsRun[0] >= cfg.Iterations {
					t.Fatalf("rank %d: Tol %g never stopped a block early: %v", r, tc.tol, w.IterationsRun)
				}
				if !slices.Equal(g.U, w.U) || !slices.Equal(g.Residuals, w.Residuals) || !slices.Equal(g.IterDiffs, w.IterDiffs) {
					t.Fatalf("rank %d: deadline link not bitwise identical to the plain link:\n got %+v\nwant %+v", r, g, w)
				}
				if !reflect.DeepEqual(g.IterationsRun, w.IterationsRun) || g.SweepsFine != w.SweepsFine || g.SweepsCoarse != w.SweepsCoarse {
					t.Fatalf("rank %d: deadline link did different work:\n got %+v\nwant %+v", r, g, w)
				}
				if len(g.Residuals) != nsteps/tc.pt {
					t.Fatalf("rank %d: %d block records for %d blocks", r, len(g.Residuals), nsteps/tc.pt)
				}
				for _, x := range []pfasst.Result{w, g} {
					if x.BlockRestarts != 0 || x.DegradedBlocks != 0 || x.FinalRanks != tc.pt {
						t.Fatalf("rank %d: fault-free run reported faults: %+v", r, x)
					}
				}
				for _, x := range []*gridRank{want[r], got[r]} {
					if n := x.tel.Counters[pfasst.CounterShrinks]; n != 0 {
						t.Fatalf("rank %d: fault-free run counted %d shrinks", r, n)
					}
					if n := x.tel.Counters[guard.CounterDetected]; n != 0 {
						t.Fatalf("rank %d: fault-free run detected %d corruptions", r, n)
					}
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
	const p, nsteps = 4, 8
	cfg := resilientCfg(p, 1)

	clean, err := runBlob(cfg, nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("drop=0.1,delay=0.2:40us,corrupt=0.05", 99)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := runBlob(cfg, plan, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	// The plain link must absorb the same plan too.
	plainCfg := cfg
	plainCfg.Resilience = pfasst.Resilience{}
	plain, err := runBlob(plainCfg, plan, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	for r := range clean {
		if !slices.Equal(chaos[r].PFASST.U, clean[r].PFASST.U) {
			t.Fatalf("rank %d: transient chaos changed U", r)
		}
		if !slices.Equal(plain[r].PFASST.U, clean[r].PFASST.U) {
			t.Fatalf("rank %d: plain link under transient chaos diverged", r)
		}
	}
}

// checkShrunkTo3 asserts the shape of a 4×1 run of nsteps = 8 that
// lost one rank: every survivor ends with 3 live time slices and
// counted one shrink and no spatial retirement; the ranks in tail —
// the first live slices, which ran the tail block the 3-wide blocks
// leave over — hold the final state and agree on it, with one block
// record more than the survivors retired for the tail; and
// pfasst.fine_sweeps equals Result.SweepsFine (the counter and the
// Result are fed by the same Record* calls). It returns the first tail
// rank's outcome.
func checkShrunkTo3(t *testing.T, dead int, tail []int, results []*gridRank) *gridRank {
	t.Helper()
	if results[dead] != nil {
		t.Fatal("crashed rank produced a result")
	}
	first := results[tail[0]]
	for r, res := range results {
		if r == dead {
			continue
		}
		if res == nil {
			t.Fatalf("survivor rank %d has no result", r)
		}
		pr := res.PFASST
		if pr.FinalRanks != 3 {
			t.Fatalf("rank %d: FinalRanks = %d, want 3", r, pr.FinalRanks)
		}
		if pr.BlockRestarts != 1 || pr.DegradedBlocks < 2 {
			t.Fatalf("rank %d: %d restarts, %d degraded blocks recorded", r, pr.BlockRestarts, pr.DegradedBlocks)
		}
		if n := res.tel.Counters[pfasst.CounterShrinks]; n != 1 {
			t.Fatalf("rank %d: %s = %d, want 1", r, pfasst.CounterShrinks, n)
		}
		if n := res.tel.Counters[CounterRecoveryRetired]; n != 0 {
			t.Fatalf("rank %d: %s = %d: a tail retires nobody into the count", r, CounterRecoveryRetired, n)
		}
		if n := res.tel.Counters[pfasst.CounterFineSweeps]; n != int64(pr.SweepsFine) {
			t.Fatalf("rank %d: %s = %d but Result.SweepsFine = %d", r, pfasst.CounterFineSweeps, n, pr.SweepsFine)
		}
		inTail := slices.Contains(tail, r)
		if res.Participated != inTail {
			t.Fatalf("rank %d: participated = %v, want %v", r, res.Participated, inTail)
		}
		if want := len(first.PFASST.Residuals) - 1; !inTail && len(pr.Residuals) != want {
			t.Fatalf("rank %d retired for the tail with %d block records, want %d", r, len(pr.Residuals), want)
		}
		if inTail && !slices.Equal(pr.U, first.PFASST.U) {
			t.Fatalf("tail ranks %d and %d disagree on U", tail[0], r)
		}
	}
	return first
}

// TestCrashRecoveryCompletesDegraded kills one time rank mid-block and
// requires the survivors to finish: drop the dead slice, redo the block
// 3 wide from its consistent start state, run a second 3-step block,
// and the 2-step tail as one more block on the first two live slices —
// with the final answer still within tolerance of the fault-free run.
func TestCrashRecoveryCompletesDegraded(t *testing.T) {
	const p, nsteps = 4, 8
	cfg := resilientCfg(p, 1)
	clean, err := runBlob(cfg, nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash=1@iter:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runBlob(cfg, plan, nsteps)
	if !errors.Is(err, mpi.ErrInjectedCrash) {
		t.Fatalf("run error should be the injected crash, got %v", err)
	}
	first := checkShrunkTo3(t, 1, []int{0, 2}, results)
	// Two 3-wide blocks and the 2-wide tail, all three degraded.
	if pr := first.PFASST; len(pr.Residuals) != 3 || pr.DegradedBlocks != 3 {
		t.Fatalf("%d block records, %d degraded: not two 3-step blocks + a 2-step tail block", len(pr.Residuals), pr.DegradedBlocks)
	}
	if d := ode.MaxDiff(first.PFASST.U, clean[0].PFASST.U); d > 1e-4 {
		t.Fatalf("degraded-mode deviation %g exceeds tolerance", d)
	}
}

// TestCrashAtBlockBoundary: rank 3 (the broadcast root) dies right
// before the second block. Block 0 committed 4 wide; the survivors run
// one 3-step block and the 1-step tail on slice 0 alone.
func TestCrashAtBlockBoundary(t *testing.T) {
	const p, nsteps = 4, 8
	cfg := resilientCfg(p, 1)
	clean, err := runBlob(cfg, nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash=3@block:4", 7)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runBlob(cfg, plan, nsteps)
	if !errors.Is(err, mpi.ErrInjectedCrash) {
		t.Fatalf("want injected crash in run error, got %v", err)
	}
	first := checkShrunkTo3(t, 3, []int{0}, results)
	if pr := first.PFASST; len(pr.Residuals) != 3 || pr.DegradedBlocks != 2 {
		t.Fatalf("%d block records, %d degraded: not a 4-wide, a 3-wide and a 1-wide block", len(pr.Residuals), pr.DegradedBlocks)
	}
	if d := ode.MaxDiff(first.PFASST.U, clean[0].PFASST.U); d > 1e-4 {
		t.Fatalf("degraded-mode deviation %g", d)
	}
}

// lossPlan drops one specific pipelined message permanently; the
// receive must time out and the block must be retried, not hung.
type lossPlan struct{ hits *int }

func (l lossPlan) Message(src, dst, tag int, seq uint64, size int) mpi.FaultVerdict {
	// Target the first pipelined payload from rank 0 to rank 1: on a
	// PT×1 grid the block attempt's are the only user-tagged (≥ 0)
	// messages between different ranks; collectives tag negative.
	if src == 0 && dst == 1 && tag >= 0 && *l.hits == 0 {
		*l.hits++
		return mpi.FaultVerdict{Injected: true, Lost: true}
	}
	return mpi.FaultVerdict{}
}

func (l lossPlan) CrashAt(rank int, phase string, epoch int) bool { return false }

func TestHardLossRetriesBlockBitwise(t *testing.T) {
	const p, nsteps = 4, 8
	cfg := resilientCfg(p, 1)
	cfg.Resilience.RecvTimeout = 150 * time.Millisecond

	clean, err := runBlob(cfg, nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	lossy, err := runBlob(cfg, lossPlan{hits: &hits}, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("loss plan fired %d times", hits)
	}
	for r := range clean {
		l := lossy[r].PFASST
		if l.BlockRestarts != 1 || l.FinalRanks != p {
			t.Fatalf("rank %d: one hard loss gave %d restarts, final width %d", r, l.BlockRestarts, l.FinalRanks)
		}
		// A rejected attempt leaves no per-block record behind, even on
		// a rank whose own part of it finished (rank 0 only sends).
		if len(l.Residuals) != nsteps/p || len(l.IterDiffs) != nsteps/p || len(l.IterationsRun) != nsteps/p {
			t.Fatalf("rank %d: %d/%d/%d block records for %d committed blocks",
				r, len(l.Residuals), len(l.IterDiffs), len(l.IterationsRun), nsteps/p)
		}
		if !slices.Equal(l.U, clean[r].PFASST.U) {
			t.Fatalf("rank %d: retried run diverged", r)
		}
	}
}

// TestLeakCorruptionTypedFailure: when every payload arrives torn, the
// checked decoders must surface typed errors and the run must give up
// after the retry budget — an error return on every rank, never a
// panic or a hang. Under the universal plan the recovery round's own
// collectives are torn first (the Split's membership blocks); the
// pipeline-only row lets the grid form and tears what the block
// attempt receives.
func TestLeakCorruptionTypedFailure(t *testing.T) {
	everything, err := fault.Parse("corrupt=1:leak", 3)
	if err != nil {
		t.Fatal(err)
	}
	wide := resilientCfg(2, 2)
	for _, row := range []struct {
		name  string
		cfg   Config
		pol   mpi.FaultPolicy
		cause error
	}{
		{"every message", resilientCfg(4, 1), everything, mpi.ErrTornPayload},
		{"every message 2x2", wide, everything, mpi.ErrTornPayload},
		{"pipeline only", resilientCfg(4, 1), tornPipeline{}, pfasst.ErrBlockAbort},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.Resilience.RecvTimeout = 200 * time.Millisecond
			cfg.Resilience.MaxBlockRetries = 2

			ranks, err := runBlob(cfg, row.pol, 8)
			if err == nil {
				t.Fatal("universally torn payloads reported success")
			}
			for r, res := range ranks {
				if res != nil {
					t.Fatalf("rank %d returned a result", r)
				}
			}
			if errors.Is(err, mpi.ErrInjectedCrash) {
				t.Fatalf("no crash was planned: %v", err)
			}
			if strings.Contains(err.Error(), "panicked") {
				t.Fatalf("a rank panicked instead of returning an error: %v", err)
			}
			if !errors.Is(err, row.cause) || !strings.Contains(err.Error(), "failed 3 attempts") {
				t.Fatalf("error is not the typed, exhausted-retries failure: %v", err)
			}
		})
	}
}

// tornPipeline is fault.Parse("corrupt=1:leak") narrowed to the block
// attempt's messages (user tags; collectives tag negative).
type tornPipeline struct{}

func (tornPipeline) Message(src, dst, tag int, seq uint64, size int) mpi.FaultVerdict {
	return mpi.FaultVerdict{Injected: tag >= 0, CorruptTruncate: tag >= 0}
}

func (tornPipeline) CrashAt(rank int, phase string, epoch int) bool { return false }

// tornOnce tears the first collective message from rank 0 to rank 1:
// the membership block of the initial decomposition's first Split.
type tornOnce struct{ hits *int }

func (p tornOnce) Message(src, dst, tag int, seq uint64, size int) mpi.FaultVerdict {
	if src == 0 && dst == 1 && tag < 0 && *p.hits == 0 {
		*p.hits++
		return mpi.FaultVerdict{Injected: true, CorruptTruncate: true}
	}
	return mpi.FaultVerdict{}
}

func (tornOnce) CrashAt(rank int, phase string, epoch int) bool { return false }

// TestTornCollectiveRetriesRecoveryRound: one torn membership block
// fails the Split on the ranks the ring carries it to and on no other;
// they must wake the rank that decoded cleanly (it is already inside
// the next collective), and one more recovery round must finish the
// run bitwise identical to the fault-free one, with no block restart.
func TestTornCollectiveRetriesRecoveryRound(t *testing.T) {
	const p, nsteps = 4, 8
	cfg := resilientCfg(p, 1)
	clean, err := runBlob(cfg, nil, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	torn, err := runBlob(cfg, tornOnce{hits: &hits}, nsteps)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("torn plan fired %d times", hits)
	}
	for r := range clean {
		if n := torn[r].tel.Counters[CounterRecoveryRounds]; n != 2 {
			t.Fatalf("rank %d: %d recovery rounds, want the torn one and its retry", r, n)
		}
		if pr := torn[r].PFASST; pr.BlockRestarts != 0 || pr.FinalRanks != p || !slices.Equal(pr.U, clean[r].PFASST.U) {
			t.Fatalf("rank %d: %d restarts, final width %d, or U diverged", r, pr.BlockRestarts, pr.FinalRanks)
		}
	}
}

// tornAlltoall tears the first non-empty Alltoall message from world
// rank 0 to world rank 1 — spatial ranks 0 and 1 of time slice 0 on
// both grids below: a route block of the first decomposition, one
// particle record a byte short.
type tornAlltoall struct{ hits *int }

func (p tornAlltoall) Message(src, dst, tag int, seq uint64, size int) mpi.FaultVerdict {
	if src == 0 && dst == 1 && tag < 0 && (-tag-1)%16 == 4 && size > 0 && *p.hits == 0 {
		*p.hits++
		return mpi.FaultVerdict{Injected: true, CorruptTruncate: true}
	}
	return mpi.FaultVerdict{}
}

func (tornAlltoall) CrashAt(rank int, phase string, epoch int) bool { return false }

// TestTornRouteBlockRetriesOrFailsTyped: a torn block of hot's route
// Alltoall must not be decoded short. The run either retries and ends
// bitwise equal to the clean run on every rank, or fails with the
// typed torn-payload error after the retry budget; it never succeeds
// with another state and never panics untyped.
func TestTornRouteBlockRetriesOrFailsTyped(t *testing.T) {
	const nsteps = 4
	for _, g := range []struct{ pt, ps int }{{1, 2}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", g.pt, g.ps), func(t *testing.T) {
			cfg := resilientCfg(g.pt, g.ps)
			clean, err := runBlob(cfg, nil, nsteps)
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			torn, err := runBlob(cfg, tornAlltoall{hits: &hits}, nsteps)
			if hits != 1 {
				t.Fatalf("torn plan fired %d times", hits)
			}
			if err != nil {
				if !errors.Is(err, mpi.ErrTornPayload) || strings.Contains(err.Error(), "panicked") {
					t.Fatalf("torn route block is not a typed failure: %v", err)
				}
				return
			}
			for r := range clean {
				if !slices.Equal(torn[r].PFASST.U, clean[r].PFASST.U) {
					t.Fatalf("rank %d: run over a torn route block succeeded with another state", r)
				}
				if torn[r].PFASST.BlockRestarts == 0 {
					t.Fatalf("rank %d: run over a torn route block succeeded without a retry", r)
				}
			}
		})
	}
}

// TestCheckpointResumeBitwise: a run that resumes from a mid-run block
// checkpoint must land on bitwise the same answer as the uninterrupted
// run, and resuming from a completed checkpoint must return instantly
// with the stored state.
func TestCheckpointResumeBitwise(t *testing.T) {
	const p = 4
	cfg := resilientCfg(p, 1)
	cfg.Resilience.CheckpointDir = t.TempDir()

	// Uninterrupted 12-step reference, writing checkpoints as it goes.
	full, err := runBlob(cfg, nil, 12)
	if err != nil {
		t.Fatal(err)
	}

	// The final checkpoint records all 12 steps: a resume runs zero
	// blocks and must return the stored state verbatim.
	cfg.Resilience.Resume = true
	resumed, err := runBlob(cfg, nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resumed[0].PFASST.U, full[0].PFASST.U) || len(resumed[0].PFASST.Residuals) != 0 {
		t.Fatalf("completed-checkpoint resume changed U or ran %d blocks", len(resumed[0].PFASST.Residuals))
	}

	// Now an interruption: run 8 steps (2 of 3 blocks) into a fresh
	// directory, resume to 12, and require the final answer to match
	// the uninterrupted run bitwise.
	cfg8 := resilientCfg(p, 1)
	cfg8.Resilience.CheckpointDir = t.TempDir()
	if _, err := runBlob(cfg8, nil, 8); err != nil {
		t.Fatal(err)
	}
	cfg8.Resilience.Resume = true
	cont, err := runBlob(cfg8, nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	for r := range cont {
		if !slices.Equal(cont[r].PFASST.U, full[r].PFASST.U) {
			t.Fatalf("rank %d: resumed run diverged from the uninterrupted run", r)
		}
	}
	if n := len(cont[0].PFASST.Residuals); n != 1 {
		t.Fatalf("resumed run executed %d blocks, want 1", n)
	}
}
