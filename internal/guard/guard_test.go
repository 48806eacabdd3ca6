package guard

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/particle"
	"repro/internal/telemetry"
	"repro/internal/tree"
)

func testState(n int) []float64 {
	sys := particle.RandomVortexBlob(n, 0.25, 11)
	return sys.PackNew()
}

func mustMem(t *testing.T, spec string, seed int64) *fault.MemPlan {
	t.Helper()
	m, err := fault.ParseMem(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNilGuardIsNoop(t *testing.T) {
	var g *Guard
	u := testState(4)
	before := append([]float64(nil), u...)
	g.CommitState(u, 0)
	if v := g.ScrubState(u); v != nil {
		t.Fatalf("nil guard scrub: %v", v)
	}
	if g.InjectBlockEnd(u, 0, 0) != 0 {
		t.Fatal("nil guard injected")
	}
	if v := g.CheckBlockEnd(u, 0, 0); v != nil {
		t.Fatalf("nil guard check: %v", v)
	}
	if err := g.AfterBuild(nil, 0); err != nil {
		t.Fatalf("nil guard hook: %v", err)
	}
	for i := range u {
		if u[i] != before[i] {
			t.Fatal("nil guard mutated state")
		}
	}
}

func TestScrubCleanStateUntouched(t *testing.T) {
	g := New(Policy{Enabled: true}, 0, nil)
	u := testState(8)
	before := append([]float64(nil), u...)
	g.CommitState(u, 0)
	if v := g.ScrubState(u); v != nil {
		t.Fatalf("clean scrub flagged: %v", v)
	}
	for i := range u {
		if u[i] != before[i] {
			t.Fatal("clean scrub mutated state")
		}
	}
}

func TestScrubDetectsAndRollsBack(t *testing.T) {
	reg := telemetry.New()
	g := New(Policy{Enabled: true}, 0, reg)
	u := testState(8)
	committed := append([]float64(nil), u...)
	g.CommitState(u, 0)

	// Real (unplanned) corruption: flip one exponent bit in place.
	u[13] = fault.FlipBit(u[13], 60)
	if v := g.ScrubState(u); v != nil {
		t.Fatalf("recoverable corruption aborted: %v", v)
	}
	for i := range u {
		if u[i] != committed[i] {
			t.Fatalf("word %d not restored: %g != %g", i, u[i], committed[i])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[CounterDetected] == 0 || snap.Counters[CounterRollback] == 0 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Counters[CounterRecovered] != snap.Counters[CounterDetected] {
		t.Fatalf("recovered %d != detected %d",
			snap.Counters[CounterRecovered], snap.Counters[CounterDetected])
	}
}

func TestScrubTransientInjectionRecovers(t *testing.T) {
	// Transient flips re-roll every attempt, so recovery needs the
	// expected flips per attempt well below one; the rollback ladder
	// then hits a clean attempt with high probability.
	reg := telemetry.New()
	base := testState(16) // 96 words at rate 2e-3: ~0.2 expected flips
	for seed := int64(0); seed < 64; seed++ {
		pol := Policy{Enabled: true, Mem: mustMem(t, "rate=2e-3,in=state", seed), MaxRollback: 8}
		g := New(pol, 0, reg)
		u := append([]float64(nil), base...)
		g.CommitState(u, 0)
		if v := g.ScrubState(u); v != nil {
			t.Fatalf("seed %d: transient flips aborted: %v", seed, v)
		}
		for i := range u {
			if u[i] != base[i] {
				t.Fatalf("seed %d: state not bitwise restored after scrub", seed)
			}
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[CounterInjected] == 0 {
		t.Fatal("no seed in 64 injected at rate 2e-3 over 96 words")
	}
	if snap.Counters[CounterDetected] != snap.Counters[CounterInjected] {
		t.Fatalf("detected %d != injected %d",
			snap.Counters[CounterDetected], snap.Counters[CounterInjected])
	}
	if snap.Counters[CounterRecovered] != snap.Counters[CounterDetected] {
		t.Fatalf("recovered %d != detected %d",
			snap.Counters[CounterRecovered], snap.Counters[CounterDetected])
	}
}

func TestScrubStickyExhaustsLadder(t *testing.T) {
	reg := telemetry.New()
	pol := Policy{Enabled: true, Mem: mustMem(t, "rate=0.5,in=state,sticky", 5), MaxRollback: 2}
	g := New(pol, 3, reg)
	u := testState(8)
	g.CommitState(u, 7)
	v := g.ScrubState(u)
	if v == nil {
		t.Fatal("sticky flips recovered silently")
	}
	if v.Monitor != "state-checksum" || v.Rank != 3 || v.Epoch != 7 {
		t.Fatalf("violation metadata: %+v", v)
	}
	if !errors.Is(v, ErrCorrupt) {
		t.Fatal("violation does not wrap ErrCorrupt")
	}
	var viol *Violation
	if !errors.As(error(v), &viol) {
		t.Fatal("errors.As failed on Violation")
	}
	snap := reg.Snapshot()
	if snap.Counters[CounterAborts] != 1 {
		t.Fatalf("aborts = %d", snap.Counters[CounterAborts])
	}
	if snap.Counters[CounterRecovered] != 0 {
		t.Fatalf("sticky flips reported recovered: %d", snap.Counters[CounterRecovered])
	}
}

func TestAfterBuildDetectsManualFlip(t *testing.T) {
	sys := particle.RandomVortexBlob(64, 0.3, 9)
	tr := tree.Build(sys, tree.BuildConfig{LeafCap: 4, Discipline: tree.Vortex})
	g := New(Policy{Enabled: true}, 0, nil)

	// Clean tree passes.
	if err := g.AfterBuild(tr, 0); err != nil {
		t.Fatalf("clean tree flagged: %v", err)
	}

	// A real moment flip is detected and escalates to retry.
	tr.Nodes[tr.Root].CircSum.X = fault.FlipBit(tr.Nodes[tr.Root].CircSum.X, 55)
	err := g.AfterBuild(tr, 0)
	if !errors.Is(err, tree.ErrRetryBuild) {
		t.Fatalf("want retry, got %v", err)
	}

	// Persisting past MaxRecompute becomes a Violation.
	err = g.AfterBuild(tr, DefaultMaxRecompute)
	var viol *Violation
	if !errors.As(err, &viol) {
		t.Fatalf("want Violation, got %v", err)
	}
	if viol.Monitor != "tree-moments" {
		t.Fatalf("monitor = %q", viol.Monitor)
	}
}

func TestBuildWithHookRecoversInjectedFlips(t *testing.T) {
	// Inject tree-domain flips through the real rebuild loop: the
	// returned tree must always pass the ABFT checks, whatever the
	// seed did.
	// The rate must keep the expected flips per attempt well below one
	// (P(clean rebuild) = (1-rate)^words), or the transient plan keeps
	// re-corrupting fresh rebuilds and the ladder rightly aborts.
	sys := particle.RandomVortexBlob(80, 0.3, 13)
	reg := telemetry.New()
	for seed := int64(0); seed < 8; seed++ {
		pol := Policy{Enabled: true, Mem: mustMem(t, "rate=2e-4,in=tree", seed), MaxRecompute: 8}
		g := New(pol, 0, reg)
		tr := tree.BuildArenaWithHook(g, new(tree.Arena), sys, tree.BuildConfig{LeafCap: 4, Discipline: tree.Vortex})
		if err := tr.CheckMoments(); err != nil {
			t.Fatalf("seed %d: returned tree corrupt: %v", seed, err)
		}
		if err := tr.CheckOrdering(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[CounterInjected] > 0 &&
		snap.Counters[CounterDetected] != snap.Counters[CounterInjected] {
		t.Fatalf("tree flips: detected %d != injected %d",
			snap.Counters[CounterDetected], snap.Counters[CounterInjected])
	}
	if snap.Counters[CounterRecovered] != snap.Counters[CounterDetected] {
		t.Fatalf("tree flips: recovered %d != detected %d",
			snap.Counters[CounterRecovered], snap.Counters[CounterDetected])
	}
}

func TestCheckBlockEndDetectors(t *testing.T) {
	g := New(Policy{Enabled: true}, 0, nil)
	u := testState(8)
	g.CommitState(u, 0)

	end := append([]float64(nil), u...)
	if v := g.CheckBlockEnd(end, 0, 0); v != nil {
		t.Fatalf("clean end flagged: %v", v)
	}

	nan := append([]float64(nil), u...)
	nan[5] = math.NaN()
	if v := g.CheckBlockEnd(nan, 0, 0); v == nil || v.Monitor != "nan-scan" {
		t.Fatalf("NaN scan: %+v", v)
	}

	big := append([]float64(nil), u...)
	big[7] = 1e15
	if v := g.CheckBlockEnd(big, 0, 0); v == nil || v.Monitor != "max-abs" {
		t.Fatalf("max-abs: %+v", v)
	}

	// An exponent flip in a circulation word moves Ω by orders of
	// magnitude — the invariant monitor catches it below MaxAbs.
	circ := append([]float64(nil), u...)
	circ[3] *= 1e6
	if v := g.CheckBlockEnd(circ, 0, 0); v == nil || v.Monitor != "invariant-circulation" {
		t.Fatalf("circulation monitor: %+v", v)
	}
}

func TestJumpDetector(t *testing.T) {
	g := New(Policy{Enabled: true, JumpTol: 0.5}, 0, nil)
	u := testState(6)
	g.CommitState(u, 0)
	end := append([]float64(nil), u...)
	end[2] += 0.8
	if v := g.CheckBlockEnd(end, 0, 0); v == nil || v.Monitor != "state-jump" {
		t.Fatalf("jump detector: %+v", v)
	}
}

func TestValidateCheckpoint(t *testing.T) {
	g := New(Policy{Enabled: true}, 0, nil)
	u := testState(10)
	diag := g.CheckpointDiag(u)
	if len(diag) != 9 {
		t.Fatalf("diag len %d", len(diag))
	}
	if v := g.ValidateCheckpoint(u, diag, 2); v != nil {
		t.Fatalf("clean checkpoint rejected: %v", v)
	}
	// Corrupt one circulation word: the recomputed invariants cannot
	// match the stored ones.
	bad := append([]float64(nil), u...)
	bad[3] = fault.FlipBit(bad[3], 62)
	v := g.ValidateCheckpoint(bad, diag, 2)
	if v == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if v.Monitor != "checkpoint-invariants" && v.Monitor != "nan-scan" && v.Monitor != "max-abs" {
		t.Fatalf("monitor = %q", v.Monitor)
	}
	// v1 checkpoints (no diag) still get the NaN scan.
	nan := append([]float64(nil), u...)
	nan[0] = math.NaN()
	if v := g.ValidateCheckpoint(nan, nil, 0); v == nil {
		t.Fatal("NaN state accepted without diag")
	}
}

func TestCheckResidual(t *testing.T) {
	g := New(Policy{Enabled: true}, 0, nil)
	if v := g.CheckResidual(0, 1e-6); v != nil {
		t.Fatalf("first residual flagged: %v", v)
	}
	if v := g.CheckResidual(1, 2e-6); v != nil {
		t.Fatalf("mild growth flagged: %v", v)
	}
	if v := g.CheckResidual(2, 1.0); v == nil || v.Monitor != "residual-divergence" {
		t.Fatalf("divergence missed: %+v", v)
	}
	if v := g.CheckResidual(3, math.NaN()); v == nil {
		t.Fatal("NaN residual missed")
	}
}

func TestCoulombMomentInjectionDetected(t *testing.T) {
	sys := particle.RandomVortexBlob(48, 0.3, 21)
	for i := range sys.Particles {
		sys.Particles[i].Charge = 1 - 2*float64(i%2)
	}
	tr := tree.Build(sys, tree.BuildConfig{LeafCap: 4, Discipline: tree.Coulomb})
	g := New(Policy{Enabled: true}, 0, nil)
	if err := g.AfterBuild(tr, 0); err != nil {
		t.Fatalf("clean coulomb tree flagged: %v", err)
	}
	tr.Nodes[tr.Root].QuadQ[1][2] = fault.FlipBit(tr.Nodes[tr.Root].QuadQ[1][2], 54)
	if err := g.AfterBuild(tr, 0); !errors.Is(err, tree.ErrRetryBuild) {
		t.Fatalf("coulomb flip missed: %v", err)
	}
}

// TestTreeWordLayout pins the node word space of tree-domain
// injection: for both disciplines every word index below wordsPerNode
// addresses a distinct Node field, and a one-bit flip of any of them,
// on a leaf and on an internal node, is an ErrMoments verdict of
// CheckMoments. The seeded sweeps only sample this layout.
func TestTreeWordLayout(t *testing.T) {
	sys := particle.RandomVortexBlob(48, 0.3, 21)
	for i := range sys.Particles {
		sys.Particles[i].Charge = 1 - 2*float64(i%2)
	}
	for _, disc := range []tree.Discipline{tree.Vortex, tree.Coulomb} {
		tr := tree.Build(sys, tree.BuildConfig{LeafCap: 4, Discipline: disc})
		leaf := -1
		for i := range tr.Nodes {
			if tr.Nodes[i].Leaf && tr.Nodes[i].Count > 1 {
				leaf = i
				break
			}
		}
		if leaf < 0 || tr.Nodes[tr.Root].Leaf {
			t.Fatalf("disc %d: want a multi-particle leaf and an internal root", disc)
		}
		wpn := wordsPerNode(disc)
		seen := make(map[*float64]int, wpn)
		for w := 0; w < wpn; w++ {
			p := wordPtr(&tr.Nodes[tr.Root], disc, w)
			if prev, dup := seen[p]; dup {
				t.Fatalf("disc %d: words %d and %d address the same field", disc, prev, w)
			}
			seen[p] = w
			for _, idx := range []int{leaf, tr.Root} {
				for _, bit := range []uint{0, 51, 62} {
					saved := tr.Nodes[idx]
					if !flipWord(wordPtr(&tr.Nodes[idx], disc, w), bit) {
						t.Fatalf("disc %d node %d word %d: bit %d flip is invisible", disc, idx, w, bit)
					}
					if err := tr.CheckMoments(); !errors.Is(err, tree.ErrMoments) {
						t.Fatalf("disc %d node %d word %d bit %d: CheckMoments = %v, want ErrMoments", disc, idx, w, bit, err)
					}
					tr.Nodes[idx] = saved
				}
			}
		}
		if err := tr.CheckMoments(); err != nil {
			t.Fatalf("disc %d: restored tree flagged: %v", disc, err)
		}
	}
}
