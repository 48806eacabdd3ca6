package machine

import (
	"testing"
)

func TestBlueGenePPositive(t *testing.T) {
	m := BlueGeneP()
	// Slice, not a map: failure messages come out in declaration order
	// on every run (nbodylint's determinism rule flags map ranges in
	// numeric packages; test output should hold itself to the same bar).
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"VortexInteraction", m.VortexInteraction},
		{"CoulombInteraction", m.CoulombInteraction},
		{"SortPerKey", m.SortPerKey},
		{"TreeBuildPerParticle", m.TreeBuildPerParticle},
		{"BranchPerNode", m.BranchPerNode},
	} {
		if c.v <= 0 {
			t.Errorf("%s = %v, want > 0", c.name, c.v)
		}
	}
	// Vortex interactions (velocity + gradient) are more expensive than
	// Coulomb ones.
	if m.VortexInteraction <= m.CoulombInteraction {
		t.Error("vortex interaction should cost more than Coulomb")
	}
}

func TestScale(t *testing.T) {
	m := BlueGeneP().Scale(2)
	if m.VortexInteraction != 2*BlueGeneP().VortexInteraction {
		t.Fatal("Scale did not multiply")
	}
	if m.BranchPerNode != 2*BlueGeneP().BranchPerNode {
		t.Fatal("Scale did not multiply BranchPerNode")
	}
}

func TestTraversalWork(t *testing.T) {
	// θ = 0 degenerates to direct summation.
	if w := TraversalWork(1000, 0); w != 999 {
		t.Fatalf("direct work %v, want 999", w)
	}
	// Tiny systems have no work.
	if TraversalWork(1, 0.5) != 0 || TraversalWork(0, 0.5) != 0 {
		t.Fatal("degenerate work nonzero")
	}
	// Work grows with N (log factor) and shrinks with θ.
	w1k := TraversalWork(1000, 0.5)
	w1m := TraversalWork(1000000, 0.5)
	if w1m <= w1k {
		t.Fatalf("work must grow with N: %v vs %v", w1k, w1m)
	}
	if w1m > 10*w1k {
		t.Fatalf("work grows faster than logarithmic: %v vs %v", w1k, w1m)
	}
	tight := TraversalWork(100000, 0.3)
	loose := TraversalWork(100000, 0.6)
	if tight <= loose {
		t.Fatalf("smaller θ must cost more: %v vs %v", tight, loose)
	}
	// The 1/θ² law: ratio ≈ 4 for θ 0.3→0.6 on the log-dominated term.
	if r := tight / loose; r < 2 || r > 5 {
		t.Fatalf("θ ratio %v outside [2,5]", r)
	}
	// Work is capped at direct summation.
	if TraversalWork(50, 0.01) > 49 {
		t.Fatal("work must never exceed N-1")
	}
}

func TestTraversalWorkMatchesExecutedTree(t *testing.T) {
	// The model's interactions-per-particle should be within a factor
	// ~3 of the real tree code on a homogeneous cloud (it feeds the
	// Fig. 5 extrapolation).
	// Executed numbers from the tree tests: N=8192, θ=0.6 gives about
	// 380 interactions/particle (leaf bucket 8).
	w := TraversalWork(8192, 0.6)
	if w < 100 || w > 1200 {
		t.Fatalf("modeled work %v far from executed ~380", w)
	}
}
