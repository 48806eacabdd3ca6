package guard

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/particle"
	"repro/internal/telemetry"
	"repro/internal/tree"
)

// TestAfterBuildDetectsLaneFlip is the SoA regression for the guard
// layer: a bit flip landing in a gathered lane (the memory the batched
// kernels actually read) must be detected by the ABFT verify chain and
// recovered by a clean rebuild, exactly like a flipped moment word.
func TestAfterBuildDetectsLaneFlip(t *testing.T) {
	sys := particle.RandomVortexBlob(64, 0.3, 9)
	cfg := tree.BuildConfig{LeafCap: 4, Discipline: tree.Vortex}
	tr := tree.Build(sys, cfg)
	reg := telemetry.New()
	g := New(Policy{Enabled: true}, 0, reg)

	if err := g.AfterBuild(tr, 0); err != nil {
		t.Fatalf("clean SoA tree flagged: %v", err)
	}

	// A flipped circulation lane escalates to a rebuild request.
	tr.Lanes.AX[3] = fault.FlipBit(tr.Lanes.AX[3], 52)
	if err := g.AfterBuild(tr, 0); !errors.Is(err, tree.ErrRetryBuild) {
		t.Fatalf("lane flip missed: want retry, got %v", err)
	}

	// The clean rebuild regathers the lanes from the uncorrupted
	// particles; the guard confirms recovery.
	tr = tree.Build(sys, cfg)
	if err := g.AfterBuild(tr, 1); err != nil {
		t.Fatalf("rebuilt tree flagged: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters[CounterDetected] < 1 || snap.Counters[CounterRecovered] < 1 {
		t.Fatalf("detected=%d recovered=%d, want ≥1 each",
			snap.Counters[CounterDetected], snap.Counters[CounterRecovered])
	}

	// A lane flip persisting past MaxRecompute becomes a Violation
	// attributed to the lane monitor.
	tr.Lanes.Y[5] = fault.FlipBit(tr.Lanes.Y[5], 33)
	err := g.AfterBuild(tr, DefaultMaxRecompute)
	var viol *Violation
	if !errors.As(err, &viol) {
		t.Fatalf("want Violation, got %v", err)
	}
	if viol.Monitor != "tree-lanes" {
		t.Fatalf("monitor = %q, want tree-lanes", viol.Monitor)
	}
}

// TestCoulombLaneInjectionDetected covers the Coulomb lane payload
// (charge lane flip).
func TestCoulombLaneInjectionDetected(t *testing.T) {
	sys := particle.RandomVortexBlob(48, 0.3, 21)
	for i := range sys.Particles {
		sys.Particles[i].Charge = 1 - 2*float64(i%2)
	}
	tr := tree.Build(sys, tree.BuildConfig{LeafCap: 4, Discipline: tree.Coulomb})
	g := New(Policy{Enabled: true}, 0, nil)
	if err := g.AfterBuild(tr, 0); err != nil {
		t.Fatalf("clean coulomb tree flagged: %v", err)
	}
	tr.Lanes.Q[7] = fault.FlipBit(tr.Lanes.Q[7], 50)
	if err := g.AfterBuild(tr, 0); !errors.Is(err, tree.ErrRetryBuild) {
		t.Fatalf("coulomb lane flip missed: %v", err)
	}
}

// TestBuildWithHookRecoversLaneInjection runs the real rebuild ladder
// with the injection word space covering the SoA lanes: whatever the
// seed corrupts, the returned tree must pass both the moment and the
// lane checks.
func TestBuildWithHookRecoversLaneInjection(t *testing.T) {
	sys := particle.RandomVortexBlob(80, 0.3, 13)
	reg := telemetry.New()
	for seed := int64(0); seed < 8; seed++ {
		pol := Policy{Enabled: true, Mem: mustMem(t, "rate=2e-4,in=tree", seed), MaxRecompute: 8}
		g := New(pol, 0, reg)
		tr := tree.BuildWithHook(g, sys, tree.BuildConfig{LeafCap: 4, Discipline: tree.Vortex})
		if err := tr.CheckMoments(); err != nil {
			t.Fatalf("seed %d: returned tree corrupt: %v", seed, err)
		}
		if err := tr.CheckLanes(); err != nil {
			t.Fatalf("seed %d: returned lanes corrupt: %v", seed, err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[CounterInjected] == 0 {
		t.Fatal("no flips injected across seeds — rate too low to test anything")
	}
	if snap.Counters[CounterDetected] < snap.Counters[CounterInjected] {
		t.Fatalf("injected %d flips but detected only %d",
			snap.Counters[CounterInjected], snap.Counters[CounterDetected])
	}
}
