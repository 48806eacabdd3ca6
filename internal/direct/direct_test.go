package direct

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// naivePair is the interaction of one source at separation r, written
// straight from the formulas in package kernel's batch.go with the
// direct (series-free) forms of F and H: an oracle that shares nothing
// with the batched kernels but q and q'.
func naivePair(sm kernel.Smoothing, sigma float64, r, alpha vec.Vec3) (vec.Vec3, vec.Mat3) {
	d := r.Norm()
	rho := d / sigma
	q := sm.Q(rho)
	f := q / (d * d * d)
	fpOverR := (rho*sm.QPrime(rho) - 3*q) / math.Pow(rho, 5) / math.Pow(sigma, 5)
	c := r.Cross(alpha)
	k := -1 / (4 * math.Pi)
	eps := vec.Mat3{{0, alpha.Z, -alpha.Y}, {-alpha.Z, 0, alpha.X}, {alpha.Y, -alpha.X, 0}}
	return c.Scale(k * f), vec.Outer(c, r).Scale(k * fpOverR).Add(eps.Scale(k * f))
}

// naiveEval is the O(N²) double loop over naivePair.
func naiveEval(sys *particle.System, sm kernel.Smoothing, scheme kernel.Scheme) (vel, stretch []vec.Vec3) {
	n := sys.N()
	vel = make([]vec.Vec3, n)
	stretch = make([]vec.Vec3, n)
	for q := 0; q < n; q++ {
		var grad vec.Mat3
		for p := 0; p < n; p++ {
			if p == q {
				continue
			}
			r := sys.Particles[q].Pos.Sub(sys.Particles[p].Pos)
			u, g := naivePair(sm, sys.Sigma, r, sys.Particles[p].Alpha)
			vel[q] = vel[q].Add(u)
			grad = grad.Add(g)
		}
		stretch[q] = scheme.Stretch(grad, sys.Particles[q].Alpha)
	}
	return vel, stretch
}

func TestEvalMatchesNaive(t *testing.T) {
	sys := particle.RandomVortexBlob(60, 0.3, 5)
	for _, workers := range []int{1, 4} {
		s := New(kernel.Algebraic6(), kernel.Transpose, workers)
		vel := make([]vec.Vec3, sys.N())
		str := make([]vec.Vec3, sys.N())
		s.Eval(sys, vel, str)
		wantV, wantS := naiveEval(sys, kernel.Algebraic6(), kernel.Transpose)
		for i := range vel {
			if vel[i].Sub(wantV[i]).Norm() > 1e-13*(1+wantV[i].Norm()) {
				t.Fatalf("workers=%d vel[%d] = %v, want %v", workers, i, vel[i], wantV[i])
			}
			if str[i].Sub(wantS[i]).Norm() > 1e-13*(1+wantS[i].Norm()) {
				t.Fatalf("workers=%d stretch[%d] = %v, want %v", workers, i, str[i], wantS[i])
			}
		}
	}
}

func TestVelocitiesMatchEval(t *testing.T) {
	sys := particle.RandomVortexBlob(40, 0.3, 6)
	s := New(kernel.Algebraic2(), kernel.Transpose, 0)
	velA := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	s.Eval(sys, velA, str)
	velB := rangeVelocities(sys, kernel.Algebraic2())
	for i := range velA {
		if velA[i].Sub(velB[i]).Norm() > 1e-14*(1+velA[i].Norm()) {
			t.Fatalf("vel mismatch at %d: %v vs %v", i, velA[i], velB[i])
		}
	}
}

func TestTransposeSchemeConservesTotalCirculation(t *testing.T) {
	// Σ_q dα_q/dt = 0 exactly for the transpose scheme.
	sys := particle.RandomVortexBlob(50, 0.4, 7)
	s := New(kernel.Algebraic6(), kernel.Transpose, 0)
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	s.Eval(sys, vel, str)
	var total, scale vec.Vec3
	for _, ds := range str {
		total = total.Add(ds)
		scale = scale.Add(vec.V3(math.Abs(ds.X), math.Abs(ds.Y), math.Abs(ds.Z)))
	}
	if total.Norm() > 1e-12*(scale.Norm()+1) {
		t.Fatalf("transpose scheme: Σ dα/dt = %v (scale %v)", total, scale.Norm())
	}
}

func TestClassicalSchemeDiffersFromTranspose(t *testing.T) {
	sys := particle.RandomVortexBlob(20, 0.4, 8)
	a := New(kernel.Algebraic6(), kernel.Transpose, 0)
	b := New(kernel.Algebraic6(), kernel.Classical, 0)
	vel := make([]vec.Vec3, sys.N())
	strT := make([]vec.Vec3, sys.N())
	strC := make([]vec.Vec3, sys.N())
	a.Eval(sys, vel, strT)
	b.Eval(sys, vel, strC)
	diff := 0.0
	for i := range strT {
		diff += strT[i].Sub(strC[i]).Norm()
	}
	if diff == 0 {
		t.Fatal("transpose and classical schemes should differ on a random blob")
	}
}

func TestTwoParticleVelocitySymmetry(t *testing.T) {
	// Two antiparallel straight vortex elements: the velocity each
	// induces on the other can be computed by hand via the pairwise
	// kernel; also u_1 from particle 2 equals −u_2 from particle 1 when
	// α_2 = α_1 (odd kernel).
	sigma := 0.2
	sys := &particle.System{Sigma: sigma, Particles: []particle.Particle{
		{Pos: vec.V3(0, 0, 0), Alpha: vec.V3(0, 0, 1)},
		{Pos: vec.V3(1, 0, 0), Alpha: vec.V3(0, 0, 1)},
	}}
	s := New(kernel.Algebraic6(), kernel.Transpose, 0)
	vel := make([]vec.Vec3, 2)
	str := make([]vec.Vec3, 2)
	s.Eval(sys, vel, str)
	want0, _ := naivePair(kernel.Algebraic6(), sigma, vec.V3(-1, 0, 0), vec.V3(0, 0, 1))
	if vel[0].Sub(want0).Norm() > 1e-14 {
		t.Fatalf("vel[0] = %v, want %v", vel[0], want0)
	}
	if vel[0].Add(vel[1]).Norm() > 1e-14 {
		t.Fatalf("velocities not antisymmetric: %v %v", vel[0], vel[1])
	}
}

func TestCoulombMatchesNaive(t *testing.T) {
	sys := particle.HomogeneousCoulomb(50, 11)
	s := New(kernel.Algebraic2(), kernel.Transpose, 3)
	pot := make([]float64, sys.N())
	f := make([]vec.Vec3, sys.N())
	const eps = 0.01
	s.Coulomb(sys, eps, pot, f)
	for q := 0; q < sys.N(); q++ {
		phi := 0.0
		var e vec.Vec3
		for p := 0; p < sys.N(); p++ {
			if p == q {
				continue
			}
			r := sys.Particles[q].Pos.Sub(sys.Particles[p].Pos)
			inv := 1 / math.Sqrt(r.Norm2()+eps*eps)
			phi += sys.Particles[p].Charge * inv
			e = e.Add(r.Scale(sys.Particles[p].Charge * inv * inv * inv))
		}
		if math.Abs(pot[q]-phi) > 1e-12*(1+math.Abs(phi)) {
			t.Fatalf("pot[%d] = %v, want %v", q, pot[q], phi)
		}
		if f[q].Sub(e).Norm() > 1e-12*(1+e.Norm()) {
			t.Fatalf("field[%d] = %v, want %v", q, f[q], e)
		}
	}
}

func TestStats(t *testing.T) {
	sys := particle.RandomVortexBlob(10, 0.3, 9)
	s := New(kernel.Algebraic6(), kernel.Transpose, 0)
	vel := make([]vec.Vec3, 10)
	str := make([]vec.Vec3, 10)
	s.Eval(sys, vel, str)
	s.Eval(sys, vel, str)
	st := s.Stats()
	if st.Evaluations != 2 {
		t.Fatalf("Evaluations = %d", st.Evaluations)
	}
	if st.Interactions != 2*10*9 {
		t.Fatalf("Interactions = %d", st.Interactions)
	}
	if s.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestEvalPanicsOnBadSliceLength(t *testing.T) {
	sys := particle.RandomVortexBlob(5, 0.3, 10)
	s := New(kernel.Algebraic6(), kernel.Transpose, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Eval(sys, make([]vec.Vec3, 4), make([]vec.Vec3, 5))
}

func BenchmarkDirectEval1k(b *testing.B) {
	sys := particle.RandomVortexBlob(1000, 0.2, 1)
	s := New(kernel.Algebraic6(), kernel.Transpose, 0)
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(sys, vel, str)
	}
}
