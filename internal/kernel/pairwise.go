package kernel

import (
	"math"

	"repro/internal/vec"
)

// Pairwise evaluates the regularized Biot–Savart interaction between a
// single source vortex element and a target point. It is the innermost
// computational kernel of both the direct solver and the tree code.
//
// With r = x_target − x_source, ρ = |r|/σ and F(r) = q(ρ)/|r|³ the
// velocity contribution is
//
//	u = −(1/4π) F(r) · r × α,
//
// and the velocity gradient contribution is
//
//	∂u_i/∂x_j = −(1/4π) [ (F'(r)/|r|) (r×α)_i r_j + F(r) ε_{ijl} α_l ].
//
// F'(r)/|r| = H(ρ)/σ⁵ with H(ρ) = (ρ q'(ρ) − 3 q(ρ))/ρ⁵; H is evaluated
// from a Taylor series for small ρ because the two terms cancel to
// leading order there.
type Pairwise struct {
	Sm    Smoothing
	Sigma float64
}

// hSwitch is the scaled radius below which H(ρ) switches to its series
// form. At the switch point both branches agree to better than 1e-6
// relative for all kernels in this package (verified by tests): the
// direct form loses ~4 digits to cancellation there while the series
// truncation error is O(ρ⁶) ≈ 1e-7.
const hSwitch = 0.02

// h evaluates H(ρ) = (ρ q'(ρ) − 3 q(ρ))/ρ⁵.
func (pw Pairwise) h(rho float64) float64 {
	return pw.hWithQ(rho, pw.Sm.Q(rho))
}

// fOf evaluates F(r) = q(ρ)/|r|³. Below hSwitch the quotient is taken
// through the ζ series of q — q(ρ) = 4π(ζ0 ρ³/3 + ζ1 ρ⁵/5 + …) — whose
// ρ³ factor cancels |r|³ analytically:
//
//	F = 4π(ζ0/3 + ζ1 ρ²/5 + ζ2 ρ⁴/7 + ζ3 ρ⁶/9)/σ³.
//
// The direct quotient underflows for denormal separations (q → 0 and
// |r|³ → 0 produce 0/0 = NaN near |r| ≈ 1e-108), while the series form
// stays finite down to |r| = 0. The truly singular kernel (q ≡ 1,
// ζ ≡ 0) keeps the direct form: it has no series and diverges by
// definition.
func (pw Pairwise) fOf(rho, d2, d float64) float64 {
	if rho < hSwitch {
		if z := pw.Sm.ZetaSeries(); z[0] != 0 {
			r2 := rho * rho
			s3 := pw.Sigma * pw.Sigma * pw.Sigma
			return 4 * math.Pi * (z[0]/3 + r2*(z[1]/5+r2*(z[2]/7+r2*(z[3]/9)))) / s3
		}
	}
	return pw.Sm.Q(rho) / (d2 * d)
}

// hWithQ is h for callers that already hold q(ρ): VelocityGrad needs
// q(ρ) for the velocity anyway, and reusing it here removes one of the
// two q evaluations from the innermost loop of every interaction
// (bitwise-neutral — both call sites computed the identical value).
// The q argument is ignored below hSwitch, where the series form needs
// no q.
func (pw Pairwise) hWithQ(rho, q float64) float64 {
	if rho < hSwitch {
		// Series: q = 4π(ζ0 ρ³/3 + ζ2 ρ⁵/5 + ζ4 ρ⁷/7 + ζ6 ρ⁹/9 + …)
		// ⇒ ρq' − 3q = 4π((2/5)ζ2 ρ⁵ + (4/7)ζ4 ρ⁷ + (6/9)ζ6 ρ⁹ + …).
		z := pw.Sm.ZetaSeries()
		r2 := rho * rho
		return 4 * math.Pi * (2.0/5*z[1] + r2*(4.0/7*z[2]+r2*(6.0/9*z[3])))
	}
	r5 := rho * rho * rho * rho * rho
	return (rho*pw.Sm.QPrime(rho) - 3*q) / r5
}

// Velocity returns the velocity induced at the target by a source with
// circulation vector alpha; r is the target position minus the source
// position. The contribution of a source at zero separation is zero.
func (pw Pairwise) Velocity(r, alpha vec.Vec3) vec.Vec3 {
	d2 := r.Norm2()
	if d2 == 0 {
		return vec.Zero3
	}
	d := math.Sqrt(d2)
	rho := d / pw.Sigma
	f := pw.fOf(rho, d2, d)
	return r.Cross(alpha).Scale(-f / (4 * math.Pi))
}

// VelocityGrad returns both the induced velocity and the velocity
// gradient tensor (∂u_i/∂x_j) at the target.
func (pw Pairwise) VelocityGrad(r, alpha vec.Vec3) (vec.Vec3, vec.Mat3) {
	d2 := r.Norm2()
	if d2 == 0 {
		return vec.Zero3, vec.Mat3{}
	}
	d := math.Sqrt(d2)
	rho := d / pw.Sigma
	var q float64
	if rho >= hSwitch {
		q = pw.Sm.Q(rho) // below hSwitch both fOf and hWithQ use the series
	}
	f := pw.fOf(rho, d2, d)
	inv4pi := 1 / (4 * math.Pi)

	rxA := r.Cross(alpha)
	u := rxA.Scale(-f * inv4pi)

	s5 := pw.Sigma * pw.Sigma * pw.Sigma * pw.Sigma * pw.Sigma
	fpOverR := pw.hWithQ(rho, q) / s5

	grad := vec.Outer(rxA, r).Scale(-fpOverR * inv4pi)
	// ε_{ijl} α_l term: matrix M with M v = v × α.
	m := vec.Mat3{
		{0, alpha.Z, -alpha.Y},
		{-alpha.Z, 0, alpha.X},
		{alpha.Y, -alpha.X, 0},
	}
	grad = grad.Add(m.Scale(-f * inv4pi))
	return u, grad
}

// StretchClassical returns the classical stretching term (α·∇)u for a
// target with circulation alpha and velocity gradient grad
// ((∇u)_{ij} = ∂u_i/∂x_j): component i is Σ_j α_j ∂u_i/∂x_j.
func StretchClassical(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	return grad.MulVec(alpha)
}

// StretchTranspose returns the transpose-scheme stretching term
// (α·∇ᵀ)u: component i is Σ_j α_j ∂u_j/∂x_i. The transpose scheme
// conserves total circulation exactly and is the form written in
// Eq. (6) of the paper.
func StretchTranspose(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	return grad.VecMul(alpha)
}

// Scheme selects the discretization of the vortex stretching term.
type Scheme int

const (
	// Transpose uses (α·∇ᵀ)u, the paper's formulation.
	Transpose Scheme = iota
	// Classical uses (α·∇)u.
	Classical
)

// Stretch applies the selected stretching scheme.
func (s Scheme) Stretch(grad vec.Mat3, alpha vec.Vec3) vec.Vec3 {
	if s == Classical {
		return StretchClassical(grad, alpha)
	}
	return StretchTranspose(grad, alpha)
}

func (s Scheme) String() string {
	if s == Classical {
		return "classical"
	}
	return "transpose"
}

// Coulomb evaluates the Plummer-softened Coulomb/gravity interaction used
// by the tree code's plasma discipline (the homogeneous neutral system of
// Fig. 5). With r = x_target − x_source and softening ε it returns the
// potential φ = Q/√(r²+ε²) and the field E = Q r/(r²+ε²)^(3/2)
// (Gaussian units, unit prefactor).
func Coulomb(r vec.Vec3, charge, eps float64) (phi float64, field vec.Vec3) {
	d2 := r.Norm2() + eps*eps
	if d2 == 0 {
		return 0, vec.Zero3
	}
	inv := 1 / math.Sqrt(d2)
	phi = charge * inv
	field = r.Scale(charge * inv * inv * inv)
	return phi, field
}
