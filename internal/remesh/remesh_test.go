package remesh

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

func TestM4PrimeShape(t *testing.T) {
	if got := M4Prime(0); got != 1 {
		t.Fatalf("W(0) = %v", got)
	}
	if got := M4Prime(1); math.Abs(got) > 1e-15 {
		t.Fatalf("W(1) = %v, want 0", got)
	}
	if M4Prime(2) != 0 || M4Prime(2.5) != 0 || M4Prime(-3) != 0 {
		t.Fatal("support must end at |x| = 2")
	}
	// Symmetric.
	for _, x := range []float64{0.3, 0.9, 1.4, 1.9} {
		if M4Prime(x) != M4Prime(-x) {
			t.Fatalf("not symmetric at %v", x)
		}
	}
	// Negative lobe in (1,2) — M'4 is not positivity-preserving.
	if M4Prime(1.5) >= 0 {
		t.Fatal("expected negative lobe at 1.5")
	}
}

func TestM4PrimePartitionOfUnity(t *testing.T) {
	// Σ_j W(x − j) = 1 for every x (degree-0 reproduction).
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 1)
		sum := 0.0
		for j := -3; j <= 3; j++ {
			sum += M4Prime(x - float64(j))
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestM4PrimeLinearReproduction(t *testing.T) {
	// Σ_j j·W(x − j) = x (degree-1 reproduction — conserves centroids).
	for _, x := range []float64{0, 0.25, 0.5, 0.77, 0.999} {
		sum := 0.0
		for j := -3; j <= 4; j++ {
			sum += float64(j) * M4Prime(x-float64(j))
		}
		if math.Abs(sum-x) > 1e-12 {
			t.Fatalf("Σ j W(x−j) = %v at x=%v", sum, x)
		}
	}
}

func TestApplyConservesCirculation(t *testing.T) {
	sys := particle.RandomVortexBlob(200, 0.3, 5)
	out, st := Apply(sys, Config{H: 0.2})
	if st.CirculationDrift > 1e-13 {
		t.Fatalf("circulation drift %g", st.CirculationDrift)
	}
	var want, got vec.Vec3
	for _, p := range sys.Particles {
		want = want.Add(p.Alpha)
	}
	for _, p := range out.Particles {
		got = got.Add(p.Alpha)
	}
	if got.Sub(want).Norm() > 1e-13 {
		t.Fatalf("Σα changed: %v -> %v", want, got)
	}
}

func TestApplyConservesLinearImpulse(t *testing.T) {
	// M'4 reproduces linears, so ½Σ x×α is conserved exactly (cutoff 0).
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(500))
	before := particle.Diagnose(sys).LinearImpulse
	out, _ := Apply(sys, Config{H: 0.15})
	after := particle.Diagnose(out).LinearImpulse
	if after.Sub(before).Norm() > 1e-12 {
		t.Fatalf("impulse drift %v -> %v", before, after)
	}
}

func TestApplyCutoffDropsWeakParticles(t *testing.T) {
	sys := particle.RandomVortexBlob(100, 0.3, 6)
	all, _ := Apply(sys, Config{H: 0.25})
	trimmed, st := Apply(sys, Config{H: 0.25, Cutoff: 0.05})
	if trimmed.N() >= all.N() {
		t.Fatalf("cutoff did not reduce particle count: %d vs %d", trimmed.N(), all.N())
	}
	if st.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestApplyGridPositions(t *testing.T) {
	sys := &particle.System{Sigma: 0.3, Particles: []particle.Particle{
		{Pos: vec.V3(0.1, 0.2, 0.3), Alpha: vec.V3(0, 0, 1), Vol: 1},
	}}
	out, _ := Apply(sys, Config{H: 0.5})
	for _, p := range out.Particles {
		for _, c := range []float64{p.Pos.X, p.Pos.Y, p.Pos.Z} {
			q := c / 0.5
			if math.Abs(q-math.Round(q)) > 1e-12 {
				t.Fatalf("particle not on grid: %v", p.Pos)
			}
		}
		if p.Vol != 0.125 {
			t.Fatalf("vol %v, want h³", p.Vol)
		}
	}
	if out.Sigma != sys.Sigma {
		t.Fatal("sigma must be carried over")
	}
}

func TestApplyDeterministic(t *testing.T) {
	sys := particle.RandomVortexBlob(80, 0.3, 7)
	a, _ := Apply(sys, Config{H: 0.2})
	b, _ := Apply(sys, Config{H: 0.2})
	if a.N() != b.N() {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Particles {
		if a.Particles[i].Pos != b.Particles[i].Pos || a.Particles[i].Alpha != b.Particles[i].Alpha {
			t.Fatal("nondeterministic output")
		}
	}
}

func TestApplyEmptyAndDefaults(t *testing.T) {
	out, st := Apply(&particle.System{Sigma: 1}, Config{})
	if out.N() != 0 || st.Before != 0 || st.After != 0 {
		t.Fatal("empty remesh wrong")
	}
	// Default H from mean volume must not blow up.
	sys := particle.RandomVortexBlob(50, 0.3, 8)
	out, _ = Apply(sys, Config{})
	if out.N() == 0 {
		t.Fatal("default-H remesh produced nothing")
	}
}

func TestRemeshedFieldApproximatesOriginal(t *testing.T) {
	// The velocity field induced by the remeshed set must approximate
	// the original field (the whole point of remeshing).
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(800))
	out, _ := Apply(sys, Config{H: 0.1})
	probe := []vec.Vec3{vec.V3(0, 0, 2), vec.V3(1.5, 0, 0), vec.V3(0, -1.2, 0.7)}
	velAt := func(s *particle.System, x vec.Vec3) vec.Vec3 {
		var l particle.SoA
		l.GatherVortex(s, nil)
		b := kernel.NewVortexBatch(pairwise(s.Sigma))
		var acc kernel.VortexAcc
		b.AccumVelRange(&acc, x.X, x.Y, x.Z, l.X, l.Y, l.Z, l.AX, l.AY, l.AZ, -1)
		return vec.V3(acc.UX, acc.UY, acc.UZ)
	}
	for _, x := range probe {
		u0 := velAt(sys, x)
		u1 := velAt(out, x)
		if u1.Sub(u0).Norm() > 0.05*(u0.Norm()+1e-12) {
			t.Fatalf("field at %v changed too much: %v -> %v", x, u0, u1)
		}
	}
}
