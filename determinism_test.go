package nbody

// Determinism regression: the space-time solver must be bitwise
// reproducible run-to-run for a fixed configuration. The in-process
// MPI delivers messages per (source, tag) in send order and the
// synchronous traversal keeps floating-point summation order fixed, so
// two identical runs must produce identical particle states — and the
// telemetry must agree on the work done (interaction counts).

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/particle"
)

func runOnce(t *testing.T, pt, ps int) (*System, SpaceTimeStats) {
	t.Helper()
	cfg := DefaultSpaceTime(pt, ps)
	cfg.Telemetry = true
	sys := RandomBlob(64, 0.2, 42)
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatalf("PT=%d PS=%d: %v", pt, ps, err)
	}
	return out, stats
}

func TestSpaceTimeDeterminism(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
		pt, ps := dims[0], dims[1]
		a, sa := runOnce(t, pt, ps)
		b, sb := runOnce(t, pt, ps)
		if a.N() != b.N() {
			t.Fatalf("PT=%d PS=%d: particle counts differ", pt, ps)
		}
		for i := range a.Particles {
			// Bitwise equality, not a tolerance: any drift means the
			// run picked up a source of nondeterminism (map iteration,
			// goroutine scheduling leaking into summation order, ...).
			if a.Particles[i] != b.Particles[i] {
				t.Fatalf("PT=%d PS=%d: particle %d differs between identical runs:\n%+v\nvs\n%+v",
					pt, ps, i, a.Particles[i], b.Particles[i])
			}
		}
		if sa.Run == nil || sb.Run == nil {
			t.Fatalf("PT=%d PS=%d: telemetry snapshot missing", pt, ps)
		}
		for _, counter := range []string{
			"hot.interactions", "hot.mac_accepts", "hot.mac_rejects",
			"pfasst.fine_sweeps", "pfasst.coarse_sweeps", "mpi.sends",
		} {
			ca, cb := sa.Run.Counter(counter), sb.Run.Counter(counter)
			if ca != cb {
				t.Errorf("PT=%d PS=%d: %s differs between identical runs: %d vs %d",
					pt, ps, counter, ca, cb)
			}
			if ca == 0 && counter == "hot.interactions" {
				t.Errorf("PT=%d PS=%d: no interactions recorded", pt, ps)
			}
		}
		if sa.LastSliceResidual != sb.LastSliceResidual {
			t.Errorf("PT=%d PS=%d: residuals differ: %g vs %g",
				pt, ps, sa.LastSliceResidual, sb.LastSliceResidual)
		}
	}
}

func TestSpaceTimeDeterminismModeled(t *testing.T) {
	// The virtual-clock path must be deterministic too: identical
	// modeled runs report the same modeled seconds to the bit. The
	// clustered rows are the benchmark's ps4_clustered input, the one
	// with the most remote cells per rank: the traversal never
	// communicates, so every receive of an evaluation has one possible
	// sender and no rank's clock depends on the host scheduler.
	//
	// The bits are pinned too (amd64, as the state hashes below): a
	// clean run steps on the plain link, whose tree broadcast of the
	// block end the clock models. At PT = 4 the deadline link's linear
	// broadcast models a different time (0x3fa60dab5e9b9bab on the
	// blob 4×1 row), so a clean run that drifted onto it fails here.
	for _, row := range []struct {
		name   string
		sys    *System
		pt, ps int
		t1     float64
		steps  int
		want   uint64
	}{
		{"blob 2x2", RandomBlob(48, 0.2, 7), 2, 2, 0.2, 4, 0x3f9812ed7a99302b},
		{"clustered 1x4", particle.ClusteredVortexSheet(352), 1, 4, 4, 8, 0x3feb1af8ec902102},
		{"clustered 2x2", particle.ClusteredVortexSheet(352), 2, 2, 4, 8, 0x3feddef494eb0e0c},
		{"blob 4x1", RandomBlob(48, 0.2, 7), 4, 1, 0.2, 8, 0x3fa60eeef7efe276},
	} {
		cfg := DefaultSpaceTime(row.pt, row.ps)
		cfg.Modeled = true
		_, sa, err := RunSpaceTime(cfg, row.sys, 0, row.t1, row.steps)
		if err != nil {
			t.Fatal(err)
		}
		_, sb, err := RunSpaceTime(cfg, row.sys, 0, row.t1, row.steps)
		if err != nil {
			t.Fatal(err)
		}
		if sa.ModeledSeconds != sb.ModeledSeconds {
			t.Errorf("%s: modeled seconds differ: %v vs %v", row.name, sa.ModeledSeconds, sb.ModeledSeconds)
		}
		if got := math.Float64bits(sa.ModeledSeconds); runtime.GOARCH == "amd64" && got != row.want {
			t.Errorf("%s: modeled seconds %v (%#x), want %v (%#x)", row.name,
				sa.ModeledSeconds, got, math.Float64frombits(row.want), row.want)
		}
	}
}

// stateHash is the FNV-1a fingerprint of a system's σ and packed state
// bits.
func stateHash(sys *System) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range append([]float64{sys.Sigma}, sys.PackNew()...) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSpaceTimePinnedAcrossCommits: TestSpaceTimeDeterminism compares
// a run with itself and cannot see drift between commits. This pins
// the final state of the 2×2 run — a storage-only change must
// reproduce it bit for bit. Last re-pinned when hot began evaluating
// its locally essential tree as one grafted tree.Tree: each target now
// sums every term into one accumulator, where it used to add each
// local branch cell's sub-result to a running sum — the same terms in
// the same order, associated differently, with every MAC decision and
// count unchanged (DESIGN.md §14). The value before that was
// 0x37bb4f09ff19ab1f, pinned when the algebraic pair kernel became the
// closed w-form (≤ 1.3e-11 per pair from the quotient form), and
// before that 0x83256eb332e02aab, from 24e9cfc. amd64 only: arm64
// fuses multiply-add, so its bits legitimately differ.
func TestSpaceTimePinnedAcrossCommits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned on amd64, running on %s", runtime.GOARCH)
	}
	out, _ := runOnce(t, 2, 2)
	const want uint64 = 0xe24865c0aea75178
	if got := stateHash(out); got != want {
		t.Fatalf("final state hash %#x, want %#x (pinned at the graft)", got, want)
	}
}

// TestResilientPinnedAcrossCommits pins the PS = 1 resilient runs to
// the hashes package pfasst's own time-shrink loop produced at be134b7,
// the last commit that had it: the grid loop on a 1-wide grid (which
// replaced it) must reproduce that loop bit for bit — fault-free, under
// transient chaos, across a rank death mid-block and at a block
// boundary (3-wide blocks, then a tail block), across a cancel and
// resume, and with the guard on. The rows that lose no rank also equal
// the plain, non-resilient run. Re-pinned in PR 24 with the closed-form
// pair kernel, as above (be134b7 → PR 21: clean 0xb9aaa344ff2693c5,
// mid-block 0xc7d91829b18dbbd0, boundary 0x3c3852c9c335654b); what the
// rows assert about one another is unchanged. amd64 only, as above.
// The two crash rows were re-pinned once more when the tail their
// 3-wide blocks leave (2 steps, resp. 1) stopped running as serial SDC
// on every survivor and became a grid block on the first live slices
// (before: mid-block 0x11c7b36776fef795, boundary 0x9e43766f1312d572).
// The mid-block row is the 4×1 row of TestFacadeCrashTailEqualsResume:
// its hash is that of resuming the 6-step manifest on a fresh 2×1 grid.
func TestResilientPinnedAcrossCommits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned on amd64, running on %s", runtime.GOARCH)
	}
	const clean uint64 = 0x0c061487cf11ed62
	sys := RandomBlob(48, 0.2, 7)
	run := func(cfg SpaceTimeConfig) uint64 {
		t.Helper()
		out, _, err := RunSpaceTime(cfg, sys, 0, 0.2, 8)
		if err != nil {
			t.Fatal(err)
		}
		return stateHash(out)
	}
	if got := run(DefaultSpaceTime(4, 1)); got != clean {
		t.Fatalf("plain 4×1 run: hash %#x, want %#x", got, clean)
	}
	for _, row := range []struct {
		name string
		want uint64
		mut  func(c *SpaceTimeConfig)
	}{
		{"no faults", clean, func(c *SpaceTimeConfig) {}},
		{"transient", clean, func(c *SpaceTimeConfig) {
			c.Resilience.FaultPlan = "drop=0.08,delay=0.15:30us,corrupt=0.04"
			c.Resilience.FaultSeed = 11
		}},
		{"crash mid-block", 0x55421299943747ba, func(c *SpaceTimeConfig) { c.Resilience.FaultPlan = "crash=1@iter:1" }},
		{"crash at boundary", 0xdbeca0e440a20b3a, func(c *SpaceTimeConfig) { c.Resilience.FaultPlan = "crash=3@block:4" }},
		{"guard clean", clean, func(c *SpaceTimeConfig) { c.Guard.Enabled = true }},
	} {
		cfg := chaosConfig(4, 1)
		row.mut(&cfg)
		if got := run(cfg); got != row.want {
			t.Errorf("%s: hash %#x, want %#x", row.name, got, row.want)
		}
	}

	cfg := chaosConfig(4, 1)
	cfg.Resilience.CheckpointDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnBlock = func(b int) {
		if b == 1 {
			cancel()
		}
	}
	if _, _, err := RunSpaceTimeCtx(ctx, cfg, sys, 0, 0.2, 8); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel at block 1 returned %v", err)
	}
	cfg.OnBlock = nil
	cfg.Resilience.Resume = true
	if got := run(cfg); got != clean {
		t.Errorf("cancel then resume: hash %#x, want %#x (pinned at PR 24)", got, clean)
	}
}
