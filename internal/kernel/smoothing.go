// Package kernel implements the regularized interaction kernels of the
// vortex particle method and the Coulomb/gravity kernels used by the
// multi-purpose tree code.
//
// A vortex particle p carries a circulation vector α_p = ω(x_p)·vol_p.
// The regularized Biot–Savart law evaluates the velocity induced at x by
// all particles,
//
//	u(x) = −(1/4π) Σ_p q(|x−x_p|/σ) / |x−x_p|³ · (x−x_p) × α_p,
//
// where q(ρ) = ∫₀^ρ 4π s² ζ(s) ds is the fraction of circulation enclosed
// within radius ρσ for the radially symmetric smoothing function ζ. The
// paper (Speck et al., SC12) uses a sixth-order algebraic kernel from the
// generalized algebraic family of Speck's thesis; this package derives
// that family from first principles: a kernel has order m when ζ is
// normalized and its radial moments ∫ ζ ρ^j d³x vanish for even j ≤ m−2.
package kernel

import "math"

// Smoothing is a generalized algebraic smoothing kernel
//
//	ζ(ρ) = (1/4π) (a + b ρ² + c ρ⁴) (1+ρ²)^(−p),   p = n + ½,
//
// with a half-integer exponent: n ≥ 2, n ≥ 3 when b ≠ 0, n ≥ 4 when
// c ≠ 0, n ≤ maxAlgebraicN. That precondition is what gives the family
// its closed forms. In w = 1/(1+ρ²) the enclosed-circulation function
// is
//
//	q(ρ) = ρ³ w^(3/2) P_F(w) = t³ P_F(w),   t = ρ/√(1+ρ²),
//
// with P_F a polynomial of degree n−2 (pf, lowest power first). It is
// the one representation of q: Q evaluates it, and NewVortexBatch
// scales it into the per-pair Horner tables of F and H. The
// coefficients (a,b,c,p) are chosen so that ζ is normalized and the
// required radial moments vanish (see the constructors below). All
// methods take the scaled radius ρ = r/σ.
type Smoothing struct {
	name    string
	order   int
	a, b, c float64
	n       int // p = n + ½
	pf      [maxAlgebraicN - 1]float64
}

// maxAlgebraicN bounds the exponent p = n + ½ of the family; it fixes
// the length of the Horner chains in the pair kernel.
const maxAlgebraicN = 6

// newAlgebraic derives P_F from (a, b, c, n). Differentiating
// q = ρ³ w^(3/2) P_F(w) and equating with q' = ρ²(a+bρ²+cρ⁴) w^p gives,
// with ρ² = (1−w)/w,
//
//	M(w) := a wⁿ⁻¹ + b (1−w) wⁿ⁻² + c (1−w)² wⁿ⁻³ = 3 P_F − (1−w)(3 P_F + 2w P_F'),
//
// i.e. m_k = (2k+1) f_{k−1} − 2k f_k coefficient by coefficient. M has
// degree n−1 and P_F degree n−2, so the recurrence runs downward from
// f_{n−1} = 0; f_0 = q(∞) comes out as 1 for a normalized kernel. For
// the two members below every intermediate is a dyadic rational, so
// the table is exact (NUMERICS.md §1).
func newAlgebraic(name string, order int, a, b, c float64, n int) Smoothing {
	var m [maxAlgebraicN + 1]float64 // m[k+1]: coefficient of w^k, so k = n−3 ≥ −1 needs no guard
	m[n] += a
	m[n-1] += b
	m[n] -= b
	m[n-2] += c
	m[n-1] -= 2 * c
	m[n] += c
	k := Smoothing{name: name, order: order, a: a, b: b, c: c, n: n}
	f := 0.0
	for j := n - 1; j >= 1; j-- {
		f = (m[j+1] + float64(2*j)*f) / float64(2*j+1)
		k.pf[j-1] = f
	}
	return k
}

// Name identifies the kernel ("algebraic6", ...).
func (k Smoothing) Name() string { return k.name }

// Order is the formal convergence order of the regularization.
func (k Smoothing) Order() int { return k.order }

// powNegHalfInt computes u^(−(n+½)) = 1/(uⁿ·√u) for u > 0 by repeated
// multiplication (it agrees with math.Pow to a few ulp, far below the
// kernels' 1e-6 accuracy budget).
func powNegHalfInt(u float64, n int) float64 {
	prod := math.Sqrt(u)
	for ; n > 0; n-- {
		prod *= u
	}
	return 1 / prod
}

// Zeta evaluates the smoothing function ζ(ρ) (3D normalization:
// ∫ ζ(|x|) d³x = 1).
func (k Smoothing) Zeta(rho float64) float64 {
	x := rho * rho
	return (k.a + x*(k.b+x*k.c)) / (4 * math.Pi) * powNegHalfInt(1+x, k.n)
}

// QPrime evaluates q'(ρ) = 4π ρ² ζ(ρ).
func (k Smoothing) QPrime(rho float64) float64 {
	return 4 * math.Pi * rho * rho * k.Zeta(rho)
}

// Q evaluates the enclosed-circulation function
// q(ρ) = ∫₀^ρ 4π s² ζ(s) ds; q(0)=0 and q(ρ)→1 as ρ→∞.
func (k Smoothing) Q(rho float64) float64 {
	u := 1 + rho*rho
	t := rho / math.Sqrt(u)
	return t * t * t * horner(&k.pf, 1/u)
}

// horner evaluates c[0] + c[1]w + … + c[4]w⁴.
func horner(c *[maxAlgebraicN - 1]float64, w float64) float64 {
	return c[0] + w*(c[1]+w*(c[2]+w*(c[3]+w*c[4])))
}

// ZetaSeries returns the leading Taylor coefficients of ζ around ρ=0:
// ζ(ρ) = z[0] + z[1]ρ² + z[2]ρ⁴ + z[3]ρ⁶ + O(ρ⁸) — an independent
// derivation from (a, b, c, p) that the tests hold the closed form to
// near the core.
func (k Smoothing) ZetaSeries() [4]float64 {
	// Expand (1+x)^(−p) = 1 − p x + p(p+1)/2 x² − p(p+1)(p+2)/6 x³ + …
	// against the numerator a + b x + c x², with x = ρ².
	p := float64(k.n) + 0.5
	c2 := p * (p + 1) / 2
	c3 := p * (p + 1) * (p + 2) / 6
	inv4pi := 1 / (4 * math.Pi)
	return [4]float64{
		k.a * inv4pi,
		(k.b - p*k.a) * inv4pi,
		(k.c - p*k.b + c2*k.a) * inv4pi,
		(-p*k.c + c2*k.b - c3*k.a) * inv4pi,
	}
}

// Algebraic2 returns the classical second-order algebraic kernel
// (Rosenhead–Moore):
//
//	ζ₂(ρ) = (3/4π)(1+ρ²)^(−5/2),   q₂(ρ) = ρ³/(1+ρ²)^(3/2) = t³.
func Algebraic2() Smoothing {
	return newAlgebraic("algebraic2", 2, 3, 0, 0, 2)
}

// Algebraic6 returns the sixth-order member of the generalized algebraic
// family used by the paper: the unique kernel
//
//	ζ₆(ρ) = (1/4π)(3675/64 − 735/8·ρ² + 105/8·ρ⁴)(1+ρ²)^(−13/2)
//
// with unit mass and vanishing second and fourth radial moments, for
// which P_F = 1 + 3/2 w + 15/8 w² + 945/64 w⁴.
func Algebraic6() Smoothing {
	return newAlgebraic("algebraic6", 6, 3675.0/64, -735.0/8, 105.0/8, 6)
}

// ByName returns the smoothing kernel with the given Name — "algebraic2"
// or "algebraic6" — and whether the name is known.
func ByName(name string) (Smoothing, bool) {
	switch name {
	case "algebraic2":
		return Algebraic2(), true
	case "algebraic6":
		return Algebraic6(), true
	}
	return Smoothing{}, false
}
