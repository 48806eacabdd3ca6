package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// The properties below are checked on the production entry points, one
// source at the origin and the target at r (so target − source = r
// exactly): velocityAt runs the velocity-only range loop, velocityGradAt
// the near leg (a one-lane AccumGradRange) and requires the far leg
// (AccumGrad) to return the same bits.
func sourceLanes(alpha vec.Vec3) (xs, ys, zs, axs, ays, azs []float64) {
	return []float64{0}, []float64{0}, []float64{0},
		[]float64{alpha.X}, []float64{alpha.Y}, []float64{alpha.Z}
}

func velocityAt(pw Pairwise, r, alpha vec.Vec3) vec.Vec3 {
	b := NewVortexBatch(pw)
	var acc VortexAcc
	xs, ys, zs, axs, ays, azs := sourceLanes(alpha)
	b.AccumVelRange(&acc, r.X, r.Y, r.Z, xs, ys, zs, axs, ays, azs, -1)
	return vec.V3(acc.UX, acc.UY, acc.UZ)
}

func velocityGradAt(t *testing.T, pw Pairwise, r, alpha vec.Vec3) (vec.Vec3, vec.Mat3) {
	t.Helper()
	b := NewVortexBatch(pw)
	var near, far VortexAcc
	xs, ys, zs, axs, ays, azs := sourceLanes(alpha)
	b.AccumGradRange(&near, r.X, r.Y, r.Z, xs, ys, zs, axs, ays, azs, -1)
	b.AccumGrad(&far, r.X, r.Y, r.Z, alpha.X, alpha.Y, alpha.Z)
	far.N = near.N // the far leg leaves the count to its caller
	checkVortexAcc(t, pw.Sm.Name()+" near vs far leg", far, near, 0)
	g := near.G
	return vec.V3(near.UX, near.UY, near.UZ),
		vec.Mat3{{g[0], g[1], g[2]}, {g[3], g[4], g[5]}, {g[6], g[7], g[8]}}
}

func coulombAt(r vec.Vec3, charge, eps float64) (float64, vec.Vec3) {
	var acc CoulombAcc
	AccumCoulombRange(&acc, r.X, r.Y, r.Z, eps, []float64{0}, []float64{0}, []float64{0}, []float64{charge}, -1)
	return acc.Phi, vec.V3(acc.EX, acc.EY, acc.EZ)
}

func TestVelocityZeroSeparation(t *testing.T) {
	pw := Pairwise{Sm: Algebraic6(), Sigma: 0.1}
	if got := velocityAt(pw, vec.Zero3, vec.V3(1, 2, 3)); got != vec.Zero3 {
		t.Fatalf("self-induced velocity = %v, want 0", got)
	}
	u, g := velocityGradAt(t, pw, vec.Zero3, vec.V3(1, 2, 3))
	if u != vec.Zero3 || g != (vec.Mat3{}) {
		t.Fatalf("self-induced grad = %v %v, want zero", u, g)
	}
}

// singularVelocity is the unregularized Biot–Savart velocity of one
// source, −(1/4π) r×α/|r|³: the σ→0 limit of every kernel.
func singularVelocity(r, alpha vec.Vec3) vec.Vec3 {
	d := r.Norm()
	return r.Cross(alpha).Scale(-1 / (4 * math.Pi) / (d * d * d))
}

func TestVelocityFarFieldMatchesSingular(t *testing.T) {
	// Far from the core the regularized kernel reduces to the singular
	// Biot–Savart kernel.
	alpha := vec.V3(0.3, -0.2, 0.9)
	r := vec.V3(5, -3, 2) // |r| ≈ 6.16, σ = 0.05 ⇒ ρ ≈ 123
	reg := Pairwise{Sm: Algebraic6(), Sigma: 0.05}
	u1, u2 := velocityAt(reg, r, alpha), singularVelocity(r, alpha)
	if u1.Sub(u2).Norm() > 1e-10*u2.Norm() {
		t.Fatalf("far field: regularized %v vs singular %v", u1, u2)
	}
}

func TestVelocityAgainstHandComputed(t *testing.T) {
	// r = (1,0,0), α = (0,0,1):
	// r×α = (1,0,0)×(0,0,1) = (0·1−0·0, 0·0−1·1, 0) = (0,−1,0)
	// ⇒ u = −(1/4π)(r×α)/|r|³ = (0, 1/4π, 0). The singular reference
	// and the paper's kernel at ρ = 1000 (1 − q ≈ 1e-18) both give it.
	r, alpha := vec.V3(1, 0, 0), vec.V3(0, 0, 1)
	want := vec.V3(0, 1/(4*math.Pi), 0)
	if u := singularVelocity(r, alpha); u.Sub(want).Norm() > 1e-14 {
		t.Fatalf("singular u = %v, want %v", u, want)
	}
	if u := velocityAt(Pairwise{Sm: Algebraic6(), Sigma: 1e-3}, r, alpha); u.Sub(want).Norm() > 1e-14 {
		t.Fatalf("algebraic6 u = %v, want %v", u, want)
	}
}

func TestVelocityGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sm := range allKernels() {
		pw := Pairwise{Sm: sm, Sigma: 0.7}
		for iter := 0; iter < 20; iter++ {
			r := vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			if r.Norm() < 0.05 {
				continue
			}
			alpha := vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			_, grad := velocityGradAt(t, pw, r, alpha)
			h := 1e-6
			for j := 0; j < 3; j++ {
				rp := r.WithComponent(j, r.Component(j)+h)
				rm := r.WithComponent(j, r.Component(j)-h)
				up := velocityAt(pw, rp, alpha)
				um := velocityAt(pw, rm, alpha)
				fd := up.Sub(um).Scale(1 / (2 * h))
				for i := 0; i < 3; i++ {
					got := grad[i][j]
					want := fd.Component(i)
					if math.Abs(got-want) > 2e-5*(1+math.Abs(want)) {
						t.Fatalf("%s: grad[%d][%d] = %v, fd = %v (r=%v)",
							sm.Name(), i, j, got, want, r)
					}
				}
			}
		}
	}
}

// producedFH reads F = q/|r|³ and H = (ρq′ − 3q)/ρ⁵ back out of the
// production entry points at scaled radius ρ: with r = (d, d, 0)/√2 and
// α = ẑ, r×α = (d, −d, 0)/√2, so u_x = −F d/(4π√2) and
// ∂u_x/∂x = −H d²/(8πσ⁵) carry one factor each and no second term.
func producedFH(t *testing.T, pw Pairwise, rho float64) (f, h float64) {
	t.Helper()
	c := rho * pw.Sigma / math.Sqrt2
	u, g := velocityGradAt(t, pw, vec.V3(c, c, 0), vec.V3(0, 0, 1))
	s5 := math.Pow(pw.Sigma, 5)
	return -4 * math.Pi * u.X / c, -4 * math.Pi * s5 * g[0][0] / (c * c)
}

func TestGradSmallRhoBranchContinuity(t *testing.T) {
	// The closed form has no branch: it must agree with the ζ series
	// near the oracle's switch radius (an independent derivation from
	// the same (a, b, c, p)) and be smooth across it.
	for _, sm := range allKernels() {
		pw := Pairwise{Sm: sm, Sigma: 1}
		rho := hSwitch * 0.999
		_, closed := producedFH(t, pw, rho)
		if series := (oracle(pw)).h(rho); math.Abs(closed-series) > 1e-6*(1+math.Abs(series)) {
			t.Errorf("%s: closed-form H %v vs ζ series %v at ρ = %v", sm.Name(), closed, series, rho)
		}
		_, below := producedFH(t, pw, hSwitch*(1-1e-6))
		_, above := producedFH(t, pw, hSwitch*(1+1e-6))
		if math.Abs(above-below) > 1e-7*math.Abs(below) {
			t.Errorf("%s: H jumps across ρ = %v: %v vs %v", sm.Name(), hSwitch, below, above)
		}
	}
}

func TestGradNoCatastrophicCancellation(t *testing.T) {
	// For very small separations the gradient must stay finite and the
	// velocity must vanish smoothly (≈ solid-body rotation inside the
	// core).
	pw := Pairwise{Sm: Algebraic6(), Sigma: 1}
	alpha := vec.V3(0, 0, 1)
	for _, d := range []float64{1e-8, 1e-6, 1e-4, 1e-3, 1e-2} {
		u, g := velocityGradAt(t, pw, vec.V3(d, 0, 0), alpha)
		if !u.IsFinite() {
			t.Fatalf("velocity not finite at d=%v: %v", d, u)
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if math.IsNaN(g[i][j]) || math.IsInf(g[i][j], 0) {
					t.Fatalf("grad not finite at d=%v: %v", d, g)
				}
			}
		}
	}
}

func TestVelocityAntisymmetricInSeparation(t *testing.T) {
	// u(r) = −u(−r) for a fixed α (the kernel is odd in r).
	pw := Pairwise{Sm: Algebraic6(), Sigma: 0.3}
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 40; iter++ {
		r := vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		a := vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		u1 := velocityAt(pw, r, a)
		u2 := velocityAt(pw, r.Neg(), a)
		if u1.Add(u2).Norm() > 1e-12*(u1.Norm()+1) {
			t.Fatalf("not antisymmetric: %v vs %v", u1, u2)
		}
	}
}

func TestVelocityParallelAlphaIsZero(t *testing.T) {
	// r × α = 0 when r ∥ α.
	pw := Pairwise{Sm: Algebraic2(), Sigma: 0.3}
	u := velocityAt(pw, vec.V3(2, 2, 2), vec.V3(-1, -1, -1))
	if u.Norm() > 1e-14 {
		t.Fatalf("parallel-α velocity = %v, want 0", u)
	}
}

func TestStretchSchemes(t *testing.T) {
	g := vec.Mat3{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	a := vec.V3(1, 0, 0)
	if got := StretchClassical(g, a); got != vec.V3(1, 4, 7) {
		t.Fatalf("classical = %v", got)
	}
	if got := StretchTranspose(g, a); got != vec.V3(1, 2, 3) {
		t.Fatalf("transpose = %v", got)
	}
	if Transpose.Stretch(g, a) != StretchTranspose(g, a) {
		t.Fatal("Scheme.Stretch(Transpose) mismatch")
	}
	if Classical.Stretch(g, a) != StretchClassical(g, a) {
		t.Fatal("Scheme.Stretch(Classical) mismatch")
	}
	if Transpose.String() != "transpose" || Classical.String() != "classical" {
		t.Fatal("Scheme.String mismatch")
	}
}

func TestCoulombFieldIsMinusGradPotentialSign(t *testing.T) {
	// field = −∇φ for a positive charge: φ decays outward, E points
	// outward (away from the source).
	phi, e := coulombAt(vec.V3(1, 0, 0), 1, 0)
	if phi != 1 {
		t.Fatalf("phi = %v, want 1", phi)
	}
	if e.X <= 0 || e.Y != 0 || e.Z != 0 {
		t.Fatalf("field = %v, want +x direction", e)
	}
	h := 1e-6
	phiP, _ := coulombAt(vec.V3(1+h, 0, 0), 1, 0)
	phiM, _ := coulombAt(vec.V3(1-h, 0, 0), 1, 0)
	grad := (phiP - phiM) / (2 * h)
	if math.Abs(e.X+grad) > 1e-6 {
		t.Fatalf("E_x = %v, −dφ/dx = %v", e.X, -grad)
	}
}

func TestCoulombSoftening(t *testing.T) {
	// With Plummer softening the potential is finite at the origin.
	phi, e := coulombAt(vec.Zero3, 2, 0.1)
	if math.Abs(phi-20) > 1e-12 {
		t.Fatalf("softened phi(0) = %v, want 20", phi)
	}
	if e != vec.Zero3 {
		t.Fatalf("softened field(0) = %v, want 0", e)
	}
	if phi, _ := coulombAt(vec.Zero3, 1, 0); phi != 0 {
		t.Fatal("unsoftened origin must return 0 by convention")
	}
}
