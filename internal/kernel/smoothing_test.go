package kernel

import (
	"math"
	"testing"
	"testing/quick"
)

func allKernels() []Smoothing {
	return []Smoothing{Algebraic2(), Algebraic6()}
}

// integrate computes ∫_0^upper f(ρ) dρ with composite Simpson.
func integrate(f func(float64) float64, upper float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := upper / float64(n)
	sum := f(0) + f(upper)
	for i := 1; i < n; i++ {
		x := float64(i) * h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

func TestZetaNormalization(t *testing.T) {
	for _, k := range allKernels() {
		mass := integrate(func(r float64) float64 {
			return 4 * math.Pi * r * r * k.Zeta(r)
		}, 200, 400000)
		if math.Abs(mass-1) > 2e-3 {
			t.Errorf("%s: ∫ζ d³x = %v, want 1", k.Name(), mass)
		}
	}
}

func TestMomentConditions(t *testing.T) {
	// Order-m kernels must have vanishing radial moments ∫ζρ^j d³x for
	// even j ≤ m−2; their absolute scale is O(1) so a small tolerance
	// on the numerical integral suffices.
	cases := []struct {
		k       Smoothing
		vanish  []int
		nonzero []int
	}{
		{Algebraic2(), nil, []int{2}},
		{Algebraic6(), []int{2, 4}, nil},
	}
	moment := func(k Smoothing, j int) float64 {
		return integrate(func(r float64) float64 {
			return 4 * math.Pi * math.Pow(r, float64(j)+2) * k.Zeta(r)
		}, 3000, 6000000)
	}
	for _, c := range cases {
		for _, j := range c.vanish {
			if m := moment(c.k, j); math.Abs(m) > 5e-2 {
				t.Errorf("%s: moment %d = %v, want 0", c.k.Name(), j, m)
			}
		}
		for _, j := range c.nonzero {
			if m := moment(c.k, j); math.Abs(m) < 0.1 {
				t.Errorf("%s: moment %d = %v, expected nonzero", c.k.Name(), j, m)
			}
		}
	}
}

// The one table of the algebraic family: P_F and P_H of the paper's
// kernel are the exact rationals of NUMERICS.md §1–2, P_F(1) = a/3 is
// the core value F(0)σ³ = 4πζ(0)/3 for every member, and no coefficient
// is negative (so neither Horner chain can cancel on 0 < w ≤ 1).
func TestAlgebraicClosedFormTables(t *testing.T) {
	const inv4pi = 1 / (4 * math.Pi)
	k := Algebraic6()
	if want := [5]float64{1, 3.0 / 2, 15.0 / 8, 0, 945.0 / 64}; k.pf != want {
		t.Errorf("algebraic6: P_F = %v, want %v", k.pf, want)
	}
	b := NewVortexBatch(Pairwise{Sm: k, Sigma: 1})
	for i, h := range [5]float64{-3, -15.0 / 2, -105.0 / 8, 0, -10395.0 / 64} {
		if b.hc[i] != -h*inv4pi || b.fc[i] != -k.pf[i]*inv4pi {
			t.Errorf("algebraic6: folded tables at w^%d: F %v, H %v", i, b.fc[i], b.hc[i])
		}
	}
	for _, k := range allKernels() {
		if got := horner(&k.pf, 1); math.Abs(got-k.a/3) > 1e-14*k.a {
			t.Errorf("%s: P_F(1) = %v, want a/3 = %v", k.name, got, k.a/3)
		}
		for i, f := range k.pf {
			if f < 0 {
				t.Errorf("%s: P_F coefficient of w^%d is %v < 0", k.name, i, f)
			}
		}
	}
}

func TestQLimits(t *testing.T) {
	for _, k := range allKernels() {
		if got := k.Q(0); got != 0 {
			t.Errorf("%s: q(0) = %v, want 0", k.Name(), got)
		}
		if got := k.Q(1e6); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: q(∞) = %v, want 1", k.Name(), got)
		}
	}
}

func TestQMatchesIntegralOfZeta(t *testing.T) {
	for _, k := range allKernels() {
		for _, rho := range []float64{0.1, 0.5, 1, 2, 5, 10} {
			want := integrate(func(s float64) float64 {
				return 4 * math.Pi * s * s * k.Zeta(s)
			}, rho, 20000)
			if got := k.Q(rho); math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Errorf("%s: q(%v) = %v, ∫ = %v", k.Name(), rho, got, want)
			}
		}
	}
}

func TestQPrimeIsDerivativeOfQ(t *testing.T) {
	for _, k := range allKernels() {
		for _, rho := range []float64{0.05, 0.3, 1, 3, 8} {
			h := 1e-6 * (1 + rho)
			fd := (k.Q(rho+h) - k.Q(rho-h)) / (2 * h)
			if got := k.QPrime(rho); math.Abs(got-fd) > 1e-5*(1+math.Abs(fd)) {
				t.Errorf("%s: q'(%v) = %v, finite diff = %v", k.Name(), rho, got, fd)
			}
		}
	}
}

func TestQMonotoneForPositiveKernels(t *testing.T) {
	// ζ ≥ 0 for the 2nd-order kernel, so q must be nondecreasing.
	k := Algebraic2()
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return k.Q(a) <= k.Q(b)+1e-14
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("%s: %v", k.Name(), err)
	}
}

func TestQBoundedProperty(t *testing.T) {
	// For every kernel |q(ρ)| stays bounded; for 2nd-order kernels
	// 0 ≤ q ≤ 1.
	for _, k := range allKernels() {
		f := func(x float64) bool {
			q := k.Q(math.Abs(x))
			return !math.IsNaN(q) && math.Abs(q) < 2.5
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", k.Name(), err)
		}
	}
}

func TestZetaSeriesMatchesZeta(t *testing.T) {
	for _, k := range allKernels() {
		z := k.ZetaSeries()
		for _, rho := range []float64{0.001, 0.01, 0.03} {
			r2 := rho * rho
			series := z[0] + r2*(z[1]+r2*(z[2]+r2*z[3]))
			if got := k.Zeta(rho); math.Abs(got-series) > 1e-8*(1+math.Abs(got)) {
				t.Errorf("%s: ζ(%v) = %v, series = %v", k.Name(), rho, got, series)
			}
		}
	}
}

func TestSixthOrderFarField(t *testing.T) {
	// 1−q(ρ) must decay like ρ^(−(order)) in the far field (it sets the
	// multipole-style error of replacing a blob by a point vortex).
	cases := []struct {
		k     Smoothing
		decay float64
	}{
		{Algebraic2(), 2},
		{Algebraic6(), 6},
	}
	for _, c := range cases {
		r1, r2 := 20.0, 40.0
		e1, e2 := 1-c.k.Q(r1), 1-c.k.Q(r2)
		rate := math.Log(math.Abs(e1)/math.Abs(e2)) / math.Log(r2/r1)
		if math.Abs(rate-c.decay) > 0.35 {
			t.Errorf("%s: far-field decay rate %.2f, want %v", c.k.Name(), rate, c.decay)
		}
	}
}

func TestKernelOrders(t *testing.T) {
	for _, c := range []struct {
		k     Smoothing
		name  string
		order int
	}{{Algebraic2(), "algebraic2", 2}, {Algebraic6(), "algebraic6", 6}} {
		if c.k.Name() != c.name || c.k.Order() != c.order {
			t.Errorf("%s: order %d, want %s of order %d", c.k.Name(), c.k.Order(), c.name, c.order)
		}
	}
}
