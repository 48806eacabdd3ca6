package kernel

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// NaN-hygiene property sweep: regularized kernels must return finite
// velocity and gradient for every separation down to and including
// denormals and exact zero. The historic failure mode is the direct
// quotient q(ρ)/|r|³ at |r| ≲ 1e-108, where numerator and denominator
// both underflow to 0 and produce 0/0 = NaN; the ζ-series branch of F
// removes it. The truly singular kernel (q ≡ 1) is excluded: it
// diverges at the origin by definition.
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

// The two branches of F must agree at the switch radius, mirroring the
// H(ρ) continuity test: a jump there would make tree-vs-direct
// comparisons discipline-dependent on particle spacing.
func TestFOfBranchContinuity(t *testing.T) {
	for _, sm := range allKernels() {
		b := NewVortexBatch(Pairwise{Sm: sm, Sigma: 1})
		rho := hSwitch * 0.999
		series := b.fSeries(rho)
		direct := sm.Q(rho) / (rho * rho * rho) // σ = 1: |r| = ρ
		if math.Abs(series-direct) > 1e-6*(1+math.Abs(direct)) {
			t.Errorf("%s: F branches disagree at switch: series %v vs direct %v",
				sm.Name(), series, direct)
		}
	}
}
