package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// ulpDist is the integer distance between two float64 values on the
// ordered bit line (0: bitwise equal, 1 spans ±0; NaN vs non-NaN is
// maximal, NaN vs NaN is 0).
func ulpDist(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if math.IsNaN(a) && math.IsNaN(b) {
			return 0
		}
		return math.MaxUint64
	}
	ord := func(bits uint64) uint64 {
		if bits&(1<<63) != 0 {
			return ^bits
		}
		return bits | (1 << 63)
	}
	oa, ob := ord(math.Float64bits(a)), ord(math.Float64bits(b))
	if oa > ob {
		return oa - ob
	}
	return ob - oa
}

// oracle is the scalar reference the batched kernels are held to: one
// source at a time through vec types, F and H as the quotients they
// are defined by (three square roots and q, q' per pair), by series
// below hSwitch. It shares no arithmetic with batch.go's closed
// form, which must stay within 1e-10 of it per pair (relative, on the
// velocity and gradient norms: the quotient for H itself loses ~4
// digits near hSwitch).
type oracle Pairwise

// hSwitch is the scaled radius below which the oracle takes F and H
// from their series forms. At the switch point both branches agree to
// better than 1e-6 relative: the direct form of H loses ~4 digits to
// cancellation there while the series truncation error is O(ρ⁶) ≈ 1e-7.
const hSwitch = 0.02

// h evaluates H(ρ) = (ρ q'(ρ) − 3 q(ρ))/ρ⁵, by series below hSwitch.
func (o oracle) h(rho float64) float64 {
	if rho < hSwitch {
		z := o.Sm.ZetaSeries()
		r2 := rho * rho
		return 4 * math.Pi * (2.0/5*z[1] + r2*(4.0/7*z[2]+r2*(6.0/9*z[3])))
	}
	r5 := rho * rho * rho * rho * rho
	return (rho*o.Sm.QPrime(rho) - 3*o.Sm.Q(rho)) / r5
}

// f evaluates F(r) = q(ρ)/|r|³, by series below hSwitch for every
// kernel that has one.
func (o oracle) f(rho, d2, d float64) float64 {
	if rho < hSwitch {
		if z := o.Sm.ZetaSeries(); z[0] != 0 {
			r2 := rho * rho
			s3 := o.Sigma * o.Sigma * o.Sigma
			return 4 * math.Pi * (z[0]/3 + r2*(z[1]/5+r2*(z[2]/7+r2*(z[3]/9)))) / s3
		}
	}
	return o.Sm.Q(rho) / (d2 * d)
}

func (o oracle) velocityGrad(r, alpha vec.Vec3) (vec.Vec3, vec.Mat3) {
	d2 := r.Norm2()
	if d2 == 0 {
		return vec.Zero3, vec.Mat3{}
	}
	d := math.Sqrt(d2)
	rho := d / o.Sigma
	f := o.f(rho, d2, d)
	inv4pi := 1 / (4 * math.Pi)
	rxA := r.Cross(alpha)
	s5 := o.Sigma * o.Sigma * o.Sigma * o.Sigma * o.Sigma
	grad := vec.Outer(rxA.Scale(-(o.h(rho)/s5)*inv4pi), r)
	// ε_{ijl} α_l term: matrix M with M v = v × α.
	m := vec.Mat3{
		{0, alpha.Z, -alpha.Y},
		{-alpha.Z, 0, alpha.X},
		{alpha.Y, -alpha.X, 0},
	}
	return rxA.Scale(-f * inv4pi), grad.Add(m.Scale(-f * inv4pi))
}

// coulombOracle is the scalar Plummer-softened Coulomb interaction.
func coulombOracle(r vec.Vec3, charge, eps float64) (phi float64, field vec.Vec3) {
	d2 := r.Norm2() + eps*eps
	if d2 == 0 {
		return 0, vec.Zero3
	}
	inv := 1 / math.Sqrt(d2)
	return charge * inv, r.Scale(charge * inv * inv * inv)
}

// refCoulombRange sums coulombOracle over a lane range in index order.
func refCoulombRange(tx, ty, tz, eps float64, xs, ys, zs, qs []float64, skip int) CoulombAcc {
	var acc CoulombAcc
	var e vec.Vec3
	x := vec.V3(tx, ty, tz)
	for i := range xs {
		if i == skip {
			continue
		}
		dphi, de := coulombOracle(x.Sub(vec.V3(xs[i], ys[i], zs[i])), qs[i], eps)
		acc.Phi += dphi
		e = e.Add(de)
		acc.N++
	}
	acc.EX, acc.EY, acc.EZ = e.X, e.Y, e.Z
	return acc
}

func checkVortexAcc(t *testing.T, ctx string, got, want VortexAcc, maxUlp uint64) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: interaction count %d, want %d", ctx, got.N, want.N)
	}
	if d := ulpDist(got.UX, want.UX); d > maxUlp {
		t.Fatalf("%s: UX off by %d ulp (%g vs %g)", ctx, d, got.UX, want.UX)
	}
	if d := ulpDist(got.UY, want.UY); d > maxUlp {
		t.Fatalf("%s: UY off by %d ulp (%g vs %g)", ctx, d, got.UY, want.UY)
	}
	if d := ulpDist(got.UZ, want.UZ); d > maxUlp {
		t.Fatalf("%s: UZ off by %d ulp (%g vs %g)", ctx, d, got.UZ, want.UZ)
	}
	for k := 0; k < 9; k++ {
		if d := ulpDist(got.G[k], want.G[k]); d > maxUlp {
			t.Fatalf("%s: G[%d] off by %d ulp (%g vs %g)", ctx, k, d, got.G[k], want.G[k])
		}
	}
}

// randomLanes fills n source lanes with positions in a unit-scale cloud
// around the target and O(1) circulations.
func randomLanes(rng *rand.Rand, n int, tx, ty, tz float64) (xs, ys, zs, axs, ays, azs []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	zs = make([]float64, n)
	axs = make([]float64, n)
	ays = make([]float64, n)
	azs = make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = tx + rng.NormFloat64()
		ys[i] = ty + rng.NormFloat64()
		zs[i] = tz + rng.NormFloat64()
		axs[i] = rng.NormFloat64()
		ays[i] = rng.NormFloat64()
		azs[i] = rng.NormFloat64()
	}
	return
}

// checkPairAgainstOracle holds one pair's contribution (got, from an
// empty accumulator) to the oracle: 1e-10 relative on the velocity and
// gradient norms.
func checkPairAgainstOracle(t *testing.T, ctx string, pw Pairwise, got VortexAcc, r, a vec.Vec3) {
	t.Helper()
	u, g := oracle(pw).velocityGrad(r, a)
	var want VortexAcc
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want.G[3*i+j] = g[i][j]
		}
	}
	du := vec.V3(got.UX, got.UY, got.UZ).Sub(u).Norm()
	var dg, ng float64
	for k := range got.G {
		dg += (got.G[k] - want.G[k]) * (got.G[k] - want.G[k])
		ng += want.G[k] * want.G[k]
	}
	const tol = 1e-10
	if !(du <= tol*u.Norm()) || !(math.Sqrt(dg) <= tol*math.Sqrt(ng)) {
		t.Fatalf("%s: r=%v: velocity off by %.3g of %.3g, gradient by %.3g of %.3g (relative bound %g)",
			ctx, r, du, u.Norm(), math.Sqrt(dg), math.Sqrt(ng), tol)
	}
}

// orderedPairs feeds the lanes one at a time, in lane order, through
// the single-pair entry point — what a range is defined to equal.
func orderedPairs(b *VortexBatch, tx, ty, tz float64, xs, ys, zs, axs, ays, azs []float64, skip int) VortexAcc {
	var acc VortexAcc
	for k := range xs {
		if k == skip {
			continue
		}
		b.AccumGrad(&acc, tx-xs[k], ty-ys[k], tz-zs[k], axs[k], ays[k], azs[k])
		acc.N++ // the far leg leaves the count to its caller
	}
	return acc
}

// checkRangeContracts asserts what is bitwise about a range on the
// production entry points: it equals its lanes fed in order as single
// pairs, it is invariant under a cut at any lane, and the velocity-only
// loop returns the same velocity bits.
func checkRangeContracts(t *testing.T, ctx string, b *VortexBatch, tx, ty, tz float64, xs, ys, zs, axs, ays, azs []float64, skip int) VortexAcc {
	t.Helper()
	var got VortexAcc
	b.AccumGradRange(&got, tx, ty, tz, xs, ys, zs, axs, ays, azs, skip)
	if want := orderedPairs(b, tx, ty, tz, xs, ys, zs, axs, ays, azs, skip); got != want {
		t.Fatalf("%s: range != its lanes as ordered single pairs:\n got %+v\nwant %+v", ctx, got, want)
	}
	for cut := 0; cut <= len(xs); cut++ {
		var parts VortexAcc
		b.AccumGradRange(&parts, tx, ty, tz, xs[:cut], ys[:cut], zs[:cut], axs[:cut], ays[:cut], azs[:cut], skip)
		b.AccumGradRange(&parts, tx, ty, tz, xs[cut:], ys[cut:], zs[cut:], axs[cut:], ays[cut:], azs[cut:], skip-cut)
		if parts != got {
			t.Fatalf("%s: range cut at lane %d differs from the whole", ctx, cut)
		}
	}
	var vel VortexAcc
	b.AccumVelRange(&vel, tx, ty, tz, xs, ys, zs, axs, ays, azs, skip)
	if want := (VortexAcc{UX: got.UX, UY: got.UY, UZ: got.UZ, N: got.N}); vel != want {
		t.Fatalf("%s: velocity loop %+v, gradient loop's velocity %+v", ctx, vel, want)
	}
	return got
}

// TestBatchMatchesScalarReference sweeps every kernel over every range
// length from 0 to several full blocks and every skip position, with a
// coincident source in the range: what is a contract stays bitwise
// (checkRangeContracts). The closed form's accuracy against the oracle
// is bounded per pair, in TestBatchFarMatchesVelocityGrad.
func TestBatchMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sm := range allKernels() {
		name := sm.Name()
		b := NewVortexBatch(Pairwise{Sm: sm, Sigma: 0.35})
		for n := 0; n <= 3*BatchWidth+1; n++ {
			tx, ty, tz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			xs, ys, zs, axs, ays, azs := randomLanes(rng, n, tx, ty, tz)
			if n > 2 {
				// One coincident source: exercises the d2 == 0 elision.
				xs[1], ys[1], zs[1] = tx, ty, tz
			}
			for skip := -1; skip < n; skip++ {
				checkRangeContracts(t, name, &b, tx, ty, tz, xs, ys, zs, axs, ays, azs, skip)
			}
		}
	}
}

// TestBatchFarMatchesVelocityGrad checks the single-pair leg against
// the oracle over σ ∈ {0.05, 0.657, 5} and ρ log-uniform in [1e-8, 1e4]
// (both sides of the oracle's series switch, the core and the far
// field). Zero separation is the early return.
func TestBatchFarMatchesVelocityGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randDir := func() vec.Vec3 {
		v := vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		return v.Scale(1 / v.Norm())
	}
	for _, sm := range allKernels() {
		for _, sigma := range []float64{0.05, 0.657, 5} {
			pw := Pairwise{Sm: sm, Sigma: sigma}
			b := NewVortexBatch(pw)
			for trial := 0; trial < 2000; trial++ {
				rho := math.Pow(10, -8+12*rng.Float64())
				r := randDir().Scale(rho * sigma)
				if trial == 0 {
					r = vec.Zero3
				}
				a := vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
				var acc VortexAcc
				b.AccumGrad(&acc, r.X, r.Y, r.Z, a.X, a.Y, a.Z)
				checkPairAgainstOracle(t, sm.Name()+"/far", pw, acc, r, a)
			}
		}
	}
}

// TestBatchCoulombMatchesScalarReference is the Coulomb analog of the
// range sweep.
func TestBatchCoulombMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, eps := range []float64{0, 1e-3, 0.1} {
		for n := 0; n <= 3*BatchWidth+1; n++ {
			tx, ty, tz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			xs, ys, zs, qs, _, _ := randomLanes(rng, n, tx, ty, tz)
			if n > 2 {
				xs[1], ys[1], zs[1] = tx, ty, tz // coincident (skipped only when eps == 0)
			}
			for _, skip := range []int{-1, 0, n - 1} {
				var got CoulombAcc
				AccumCoulombRange(&got, tx, ty, tz, eps, xs, ys, zs, qs, skip)
				want := refCoulombRange(tx, ty, tz, eps, xs, ys, zs, qs, skip)
				if got.N != want.N {
					t.Fatalf("eps=%g n=%d: count %d, want %d", eps, n, got.N, want.N)
				}
				if d := ulpDist(got.Phi, want.Phi); d > 1 {
					t.Fatalf("eps=%g n=%d: Phi off by %d ulp", eps, n, d)
				}
				for _, c := range [3][2]float64{{got.EX, want.EX}, {got.EY, want.EY}, {got.EZ, want.EZ}} {
					if d := ulpDist(c[0], c[1]); d > 1 {
						t.Fatalf("eps=%g n=%d: field off by %d ulp", eps, n, d)
					}
				}
			}
		}
	}
}

// fuzzLanes decodes fuzz bytes into bounded lane data: coordinates in
// [−10σ, 10σ] around the target, circulations in [−1, 1], with
// optional denormal circulation components and near/exactly coincident
// sources. Bounding keeps intermediate magnitudes out of overflow so
// the finiteness guarantee below is meaningful.
func fuzzLanes(rng *rand.Rand, n int, tx, ty, tz, sigma float64, denorm, coincide bool) (xs, ys, zs, axs, ays, azs []float64) {
	xs, ys, zs, axs, ays, azs = randomLanes(rng, n, 0, 0, 0)
	for i := 0; i < n; i++ {
		xs[i] = tx + xs[i]*3*sigma
		ys[i] = ty + ys[i]*3*sigma
		zs[i] = tz + zs[i]*3*sigma
	}
	if denorm && n > 0 {
		i := rng.Intn(n)
		axs[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(7))
		ays[i] = -math.SmallestNonzeroFloat64
		// A subnormal offset from the target: d² underflows to exactly
		// zero, taking the coincident-pair path.
		xs[i] = tx + math.SmallestNonzeroFloat64
		ys[i], zs[i] = ty, tz
	}
	if coincide && n > 1 {
		i := rng.Intn(n)
		xs[i], ys[i], zs[i] = tx, ty, tz
	}
	return
}

// FuzzBatchGradRange fuzzes the batched gradient loop over random tail
// lengths (0..BatchWidth−1 beyond whole blocks), denormal circulations
// and coincident sources: the range contracts hold bitwise, every pair
// stays inside the oracle bound, and the kernels never produce NaN/Inf
// from finite bounded input.
func FuzzBatchGradRange(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), 0.3, false, false)
	f.Add(int64(2), uint8(3), uint8(1), 1.0, true, false)
	f.Add(int64(3), uint8(7), uint8(2), 0.02, false, true)
	f.Add(int64(4), uint8(5), uint8(0), 250.0, true, true)
	f.Add(int64(3), uint8(7), uint8(2), 69.02, false, true) // a σ whose σ⁵ depends on the association
	f.Fuzz(func(t *testing.T, seed int64, tail, blocks uint8, sigmaRaw float64, denorm, coincide bool) {
		sigma := sigmaRaw
		if !(sigma > 1e-3 && sigma < 1e3) { // also rejects NaN
			sigma = 0.5
		}
		n := int(blocks%3)*BatchWidth + int(tail%BatchWidth)
		rng := rand.New(rand.NewSource(seed))
		tx, ty, tz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		xs, ys, zs, axs, ays, azs := fuzzLanes(rng, n, tx, ty, tz, sigma, denorm, coincide)
		skip := -1
		if n > 0 && rng.Intn(2) == 0 {
			skip = rng.Intn(n)
		}
		for _, sm := range allKernels() {
			name := sm.Name()
			pw := Pairwise{Sm: sm, Sigma: sigma}
			b := NewVortexBatch(pw)
			got := checkRangeContracts(t, name, &b, tx, ty, tz, xs, ys, zs, axs, ays, azs, skip)
			for k := range xs {
				var pair VortexAcc
				r := vec.V3(tx-xs[k], ty-ys[k], tz-zs[k])
				b.AccumGrad(&pair, r.X, r.Y, r.Z, axs[k], ays[k], azs[k])
				checkPairAgainstOracle(t, name, pw, pair, r, vec.V3(axs[k], ays[k], azs[k]))
			}
			vals := []float64{got.UX, got.UY, got.UZ}
			vals = append(vals, got.G[:]...)
			for k, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite output %d (%g) from finite input", name, k, v)
				}
			}
		}
	})
}

// FuzzBatchCoulombRange is the Coulomb analog: remainder loop + eps
// sweep, 1 ulp against the scalar reference, finite output for finite
// bounded input with nonzero softening.
func FuzzBatchCoulombRange(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), 0.0, false)
	f.Add(int64(2), uint8(6), uint8(0), 1e-3, true)
	f.Add(int64(3), uint8(7), uint8(2), 0.5, false)
	f.Fuzz(func(t *testing.T, seed int64, tail, blocks uint8, epsRaw float64, coincide bool) {
		eps := epsRaw
		if !(eps >= 0 && eps < 1e3) {
			eps = 1e-3
		}
		n := int(blocks%3)*BatchWidth + int(tail%BatchWidth)
		rng := rand.New(rand.NewSource(seed))
		tx, ty, tz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		xs, ys, zs, qs, _, _ := randomLanes(rng, n, tx, ty, tz)
		if coincide && n > 0 {
			i := rng.Intn(n)
			xs[i], ys[i], zs[i] = tx, ty, tz
		}
		skip := -1
		if n > 0 && rng.Intn(2) == 0 {
			skip = rng.Intn(n)
		}
		var got CoulombAcc
		AccumCoulombRange(&got, tx, ty, tz, eps, xs, ys, zs, qs, skip)
		want := refCoulombRange(tx, ty, tz, eps, xs, ys, zs, qs, skip)
		if got.N != want.N {
			t.Fatalf("count %d, want %d", got.N, want.N)
		}
		for _, c := range [4][2]float64{{got.Phi, want.Phi}, {got.EX, want.EX}, {got.EY, want.EY}, {got.EZ, want.EZ}} {
			if d := ulpDist(c[0], c[1]); d > 1 {
				t.Fatalf("component off by %d ulp (%g vs %g)", d, c[0], c[1])
			}
			if math.IsNaN(c[0]) || math.IsInf(c[0], 0) {
				t.Fatalf("non-finite output %g from finite input", c[0])
			}
		}
	})
}
