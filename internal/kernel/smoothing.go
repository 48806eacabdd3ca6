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

// Smoothing describes a radially symmetric smoothing function ζ and its
// derived quantities. All methods take the scaled radius ρ = r/σ.
type Smoothing interface {
	// Name identifies the kernel ("algebraic6", ...).
	Name() string
	// Order is the formal convergence order of the regularization.
	Order() int
	// Zeta evaluates the smoothing function ζ(ρ) (3D normalization:
	// ∫ ζ(|x|) d³x = 1).
	Zeta(rho float64) float64
	// Q evaluates the enclosed-circulation function
	// q(ρ) = ∫₀^ρ 4π s² ζ(s) ds; q(0)=0 and q(ρ)→1 as ρ→∞.
	Q(rho float64) float64
	// QPrime evaluates q'(ρ) = 4π ρ² ζ(ρ).
	QPrime(rho float64) float64
	// ZetaSeries returns the leading Taylor coefficients of ζ around
	// ρ=0: ζ(ρ) = z[0] + z[1]ρ² + z[2]ρ⁴ + z[3]ρ⁶ + O(ρ⁸). They are
	// used for the cancellation-free small-ρ evaluation of velocity
	// gradients.
	ZetaSeries() [4]float64
}

// algebraic is a generalized algebraic kernel
//
//	ζ(ρ) = (1/4π) (a + b ρ² + c ρ⁴) (1+ρ²)^(−p)
//
// whose enclosed-circulation function q has the closed form
//
//	q(ρ) = a·Ia(t) + b·Ib(t) + c·Ic(t),  t = ρ/√(1+ρ²),
//
// with the I’s polynomials in t obtained from exact antiderivatives. The
// coefficients (a,b,c,p) are chosen so that ζ is normalized and the
// required radial moments vanish (see the constructors below).
type algebraic struct {
	name    string
	order   int
	a, b, c float64
	p       float64 // exponent of (1+ρ²)
	q       func(t float64) float64
}

func (k *algebraic) Name() string { return k.name }
func (k *algebraic) Order() int   { return k.order }

// powNegHalfInt computes u^(−(n+½)) = 1/(uⁿ·√u) for u > 0 by repeated
// multiplication. Every kernel of the algebraic family has a
// half-integer exponent, and this form avoids math.Pow's exp/log round
// trip in the innermost loop of every interaction (it agrees with
// math.Pow to a few ulp, far below the kernels' 1e-6 accuracy budget).
func powNegHalfInt(u float64, n int) float64 {
	prod := math.Sqrt(u)
	for ; n > 0; n-- {
		prod *= u
	}
	return 1 / prod
}

func (k *algebraic) Zeta(rho float64) float64 {
	x := rho * rho
	n := int(k.p)
	if k.p != float64(n)+0.5 { // non-half-integer exponent: general path
		return (k.a + x*(k.b+x*k.c)) / (4 * math.Pi) * math.Pow(1+x, -k.p)
	}
	return (k.a + x*(k.b+x*k.c)) / (4 * math.Pi) * powNegHalfInt(1+x, n)
}

func (k *algebraic) QPrime(rho float64) float64 {
	return 4 * math.Pi * rho * rho * k.Zeta(rho)
}

func (k *algebraic) Q(rho float64) float64 {
	t := rho / math.Sqrt(1+rho*rho)
	return k.q(t)
}

func (k *algebraic) ZetaSeries() [4]float64 {
	// Expand (1+x)^(−p) = 1 − p x + p(p+1)/2 x² − p(p+1)(p+2)/6 x³ + …
	// against the numerator a + b x + c x², with x = ρ².
	p := k.p
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
	return &algebraic{
		name: "algebraic2", order: 2,
		a: 3, b: 0, c: 0, p: 5.0 / 2,
		q: func(t float64) float64 { return t * t * t },
	}
}

// WinckelmansLeonard returns the classical "high-order algebraic" kernel
// of Winckelmans & Leonard,
//
//	ζ(ρ) = (15/8π)(1+ρ²)^(−7/2),   q(ρ) = ρ³(ρ²+5/2)/(1+ρ²)^(5/2).
//
// Its far-field error decays like ρ⁻⁴ although its second radial moment
// does not vanish; it is included for comparison and carries Order 2 in
// the strict moment sense used by this package.
func WinckelmansLeonard() Smoothing {
	return &algebraic{
		name: "winckelmans-leonard", order: 2,
		a: 15.0 / 2, b: 0, c: 0, p: 7.0 / 2,
		q: func(t float64) float64 {
			// ρ³(ρ²+5/2)/(1+ρ²)^(5/2) in terms of t²=ρ²/(1+ρ²):
			// = t³(ρ²+5/2)/(1+ρ²) = t³(t² + (5/2)(1−t²)) = t³(5/2 − (3/2)t²).
			return t * t * t * (2.5 - 1.5*t*t)
		},
	}
}

// Algebraic4 returns the fourth-order member of the generalized algebraic
// family: the unique kernel
//
//	ζ₄(ρ) = (1/4π)(525/16 − 105/4·ρ²)(1+ρ²)^(−11/2)
//
// with unit mass and vanishing second radial moment.
func Algebraic4() Smoothing {
	const a, b = 525.0 / 16, -105.0 / 4
	return &algebraic{
		name: "algebraic4", order: 4,
		a: a, b: b, c: 0, p: 11.0 / 2,
		q: func(t float64) float64 {
			t2 := t * t
			t3 := t2 * t
			// ∫ s²(1+s²)^(−11/2) ds  = t³/3 − 3t⁵/5 + 3t⁷/7 − t⁹/9
			// ∫ s⁴(1+s²)^(−11/2) ds  = t⁵/5 − 2t⁷/7 + t⁹/9
			ia := t3 * (1.0/3 + t2*(-3.0/5+t2*(3.0/7+t2*(-1.0/9))))
			ib := t3 * t2 * (1.0/5 + t2*(-2.0/7+t2*(1.0/9)))
			return a*ia + b*ib
		},
	}
}

// Algebraic6 returns the sixth-order member of the generalized algebraic
// family used by the paper: the unique kernel
//
//	ζ₆(ρ) = (1/4π)(3675/64 − 735/8·ρ² + 105/8·ρ⁴)(1+ρ²)^(−13/2)
//
// with unit mass and vanishing second and fourth radial moments. Its
// enclosed-circulation function in t = ρ/√(1+ρ²) is
//
//	q₆ = a(t³/3 − 4t⁵/5 + 6t⁷/7 − 4t⁹/9 + t¹¹/11)
//	   + b(t⁵/5 − 3t⁷/7 + t⁹/3 − t¹¹/11)
//	   + c(t⁷/7 − 2t⁹/9 + t¹¹/11).
func Algebraic6() Smoothing {
	const a, b, c = 3675.0 / 64, -735.0 / 8, 105.0 / 8
	return &algebraic{
		name: "algebraic6", order: 6,
		a: a, b: b, c: c, p: 13.0 / 2,
		q: func(t float64) float64 {
			t2 := t * t
			t3 := t2 * t
			ia := t3 * (1.0/3 + t2*(-4.0/5+t2*(6.0/7+t2*(-4.0/9+t2*(1.0/11)))))
			ib := t3 * t2 * (1.0/5 + t2*(-3.0/7+t2*(1.0/3+t2*(-1.0/11))))
			ic := t3 * t2 * t2 * (1.0/7 + t2*(-2.0/9+t2*(1.0/11)))
			return a*ia + b*ib + c*ic
		},
	}
}

// gaussian is the second-order Gaussian kernel
// ζ(ρ) = (2π)^(−3/2) exp(−ρ²/2).
type gaussian struct{}

// Gaussian returns the second-order Gaussian smoothing kernel.
func Gaussian() Smoothing { return gaussian{} }

func (gaussian) Name() string { return "gaussian" }
func (gaussian) Order() int   { return 2 }

func (gaussian) Zeta(rho float64) float64 {
	return math.Exp(-rho*rho/2) / math.Pow(2*math.Pi, 1.5)
}

func (g gaussian) QPrime(rho float64) float64 {
	return 4 * math.Pi * rho * rho * g.Zeta(rho)
}

func (gaussian) Q(rho float64) float64 {
	// q(ρ) = erf(ρ/√2) − ρ √(2/π) e^(−ρ²/2)
	return math.Erf(rho/math.Sqrt2) - rho*math.Sqrt(2/math.Pi)*math.Exp(-rho*rho/2)
}

func (g gaussian) ZetaSeries() [4]float64 {
	z0 := 1 / math.Pow(2*math.Pi, 1.5)
	return [4]float64{z0, -z0 / 2, z0 / 8, -z0 / 48}
}

// Singular returns the unregularized Biot–Savart kernel (q ≡ 1). It is
// the σ→0 limit used by the far-field multipole approximation and by
// tests. Zeta is a delta distribution and therefore reported as zero for
// every ρ > 0 (and zero at ρ = 0 as well, by convention).
func Singular() Smoothing { return singular{} }

type singular struct{}

func (singular) Name() string           { return "singular" }
func (singular) Order() int             { return 0 }
func (singular) Zeta(float64) float64   { return 0 }
func (singular) Q(float64) float64      { return 1 }
func (singular) QPrime(float64) float64 { return 0 }
func (singular) ZetaSeries() [4]float64 { return [4]float64{} }

// ByName returns the smoothing kernel with the given Name, or nil when
// the name is unknown. Recognized names: "algebraic2", "algebraic4",
// "algebraic6", "winckelmans-leonard", "gaussian", "singular".
func ByName(name string) Smoothing {
	switch name {
	case "algebraic2":
		return Algebraic2()
	case "algebraic4":
		return Algebraic4()
	case "algebraic6":
		return Algebraic6()
	case "winckelmans-leonard":
		return WinckelmansLeonard()
	case "gaussian":
		return Gaussian()
	case "singular":
		return Singular()
	}
	return nil
}
