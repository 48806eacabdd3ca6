package kernel

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// NaN-hygiene property sweep: the kernels must return finite velocity
// and gradient for every separation down to and including denormals
// and exact zero. The historic failure mode is the direct quotient
// q(ρ)/|r|³ at |r| ≲ 1e-108, where numerator and denominator both
// underflow to 0 and produce 0/0 = NaN; the closed form in
// w = 1/(1+ρ²) has no quotient of that kind.
func TestNaNHygieneNearZeroSeparations(t *testing.T) {
	seps := []float64{
		0,
		5e-324, // smallest denormal
		1e-320,
		1e-300,
		1e-200,
		1e-108, // the historic 0/0 regime of the direct quotient
		1e-100,
		1e-50,
		1e-18,
		1e-9,
		1e-3,
	}
	sigmas := []float64{0.02, 1, 37.5}
	dirs := []vec.Vec3{
		vec.V3(1, 0, 0),
		vec.V3(0, -1, 0),
		vec.V3(0.6, -0.48, 0.64),
	}
	alpha := vec.V3(0.3, -1.1, 0.7)
	for _, sm := range allKernels() {
		for _, sigma := range sigmas {
			pw := Pairwise{Sm: sm, Sigma: sigma}
			// Straddle the series/direct switch too: both branches must
			// be finite, not just agree.
			all := append(append([]float64(nil), seps...),
				hSwitch*sigma*(1-1e-9), hSwitch*sigma*(1+1e-9))
			for _, d := range all {
				for _, dir := range dirs {
					r := dir.Scale(d)
					u := velocityAt(pw, r, alpha)
					if !u.IsFinite() {
						t.Fatalf("%s σ=%v d=%v: velocity %v", sm.Name(), sigma, d, u)
					}
					uu, g := velocityGradAt(t, pw, r, alpha)
					if !uu.IsFinite() {
						t.Fatalf("%s σ=%v d=%v: grad-path velocity %v", sm.Name(), sigma, d, uu)
					}
					for i := 0; i < 3; i++ {
						for j := 0; j < 3; j++ {
							if math.IsNaN(g[i][j]) || math.IsInf(g[i][j], 0) {
								t.Fatalf("%s σ=%v d=%v: gradient %v", sm.Name(), sigma, d, g)
							}
						}
					}
					if d == 0 && (u != vec.Zero3 || uu != vec.Zero3) {
						t.Fatalf("%s σ=%v: nonzero velocity at zero separation", sm.Name(), sigma)
					}
				}
			}
		}
	}
}

// F mirrors the H(ρ) continuity test: a jump would make tree-vs-direct
// comparisons discipline-dependent on particle spacing. The closed form
// has no branch: it must match the ζ series at the oracle's switch
// radius and be smooth across it.
func TestFOfBranchContinuity(t *testing.T) {
	for _, sm := range allKernels() {
		pw := Pairwise{Sm: sm, Sigma: 1}
		rho := hSwitch * 0.999
		closed, _ := producedFH(t, pw, rho)
		if series := (oracle(pw)).f(rho, rho*rho, rho); math.Abs(closed-series) > 1e-6*(1+math.Abs(series)) {
			t.Errorf("%s: closed-form F %v vs ζ series %v at ρ = %v", sm.Name(), closed, series, rho)
		}
		below, _ := producedFH(t, pw, hSwitch*(1-1e-6))
		above, _ := producedFH(t, pw, hSwitch*(1+1e-6))
		if math.Abs(above-below) > 1e-7*math.Abs(below) {
			t.Errorf("%s: F jumps across ρ = %v: %v vs %v", sm.Name(), hSwitch, below, above)
		}
	}
}

// The closed form at the ends of the float range, on the production
// range loop: a denormal d² gives the core value F(0) = a/3σ³ (no 0/0),
// a d²·σ⁻² that overflows to +Inf gives w = 0 and a contribution of
// exactly zero, and d² = 0 is skipped but counted.
func TestClosedFormEdgeSeparations(t *testing.T) {
	alpha := vec.V3(0.3, -1.1, 0.7)
	xs, ys, zs, axs, ays, azs := sourceLanes(alpha)
	for _, sm := range allKernels() {
		b := NewVortexBatch(Pairwise{Sm: sm, Sigma: 1})
		var acc VortexAcc
		r := vec.V3(1e-160, -2e-161, 0) // d² ≈ 1e-320, subnormal
		if d2 := r.Norm2(); d2 == 0 || d2 >= 2.3e-308 {
			t.Fatalf("d² = %g is not subnormal", d2)
		}
		b.AccumGradRange(&acc, r.X, r.Y, r.Z, xs, ys, zs, axs, ays, azs, -1)
		want := r.Cross(alpha).Scale(-sm.a / 3 / (4 * math.Pi))
		if got := vec.V3(acc.UX, acc.UY, acc.UZ); got.Sub(want).Norm() > 1e-14*want.Norm() {
			t.Errorf("%s: core velocity %v at denormal d², want %v", sm.Name(), got, want)
		}
		for i, g := range acc.G {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				t.Errorf("%s: G[%d] = %v at denormal d²", sm.Name(), i, g)
			}
		}

		far := NewVortexBatch(Pairwise{Sm: sm, Sigma: 1e-60})
		acc = VortexAcc{}
		far.AccumGradRange(&acc, 1e95, 2e95, -1e95, xs, ys, zs, axs, ays, azs, -1) // d²·σ⁻² = +Inf
		if acc != (VortexAcc{N: 1}) {
			t.Errorf("%s: overflowing ρ² contributes %+v, want exactly zero and one counted pair", sm.Name(), acc)
		}

		acc = VortexAcc{}
		b.AccumGradRange(&acc, 0, 0, 0, xs, ys, zs, axs, ays, azs, -1)
		if acc != (VortexAcc{N: 1}) {
			t.Errorf("%s: zero separation contributes %+v, want a counted skip", sm.Name(), acc)
		}
	}
}
