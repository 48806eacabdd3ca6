package kernel

import "math"

// This file is the definition of the pairwise arithmetic: the
// regularized Biot–Savart interaction (velocity + gradient, velocity
// only) and the Plummer-softened Coulomb interaction, evaluated over
// struct-of-arrays source lanes in fixed-width blocks into scalar
// accumulators. Every evaluator — direct summation, the tree's near
// and far legs, the distributed tree's remote cells — calls these
// entry points, so there is no second copy to keep in step.
//
// With r = x_target − x_source, ρ = |r|/σ and F(r) = q(ρ)/|r|³ one
// source with circulation vector α contributes the velocity
//
//	u = −(1/4π) F(r) · r × α
//
// and the velocity gradient
//
//	∂u_i/∂x_j = −(1/4π) [ (F'(r)/|r|) (r×α)_i r_j + F(r) ε_{ijl} α_l ],
//
// where F'(r)/|r| = H(ρ)/σ⁵ with H(ρ) = (ρ q'(ρ) − 3 q(ρ))/ρ⁵. Below
// hSwitch both F and H are taken from the Taylor series of ζ (fSeries,
// hSeries): the two terms of H cancel to leading order there, and the
// direct quotient q/|r|³ turns into 0/0 at denormal separations.
//
// Sources are summed strictly in lane order with one accumulation
// chain per output component, which is what makes a sum independent of
// how its range was cut into blocks, leaves, ranks or worker chunks. A
// source at zero separation contributes nothing (the self-interaction
// convention); the range loops still count the pair.

// BatchWidth is the fixed block width of the inner loops: the distance
// prepass runs over BatchWidth-sized chunks whose temporaries fit in
// registers. The final chunk of a range is the remainder loop (length
// 1..BatchWidth−1), which runs the identical per-lane kernel.
const BatchWidth = 8

// hSwitch is the scaled radius below which F and H switch to their
// series forms. At the switch point both branches agree to better than
// 1e-6 relative for all kernels in this package (verified by tests):
// the direct form of H loses ~4 digits to cancellation there while the
// series truncation error is O(ρ⁶) ≈ 1e-7.
const hSwitch = 0.02

// VortexAcc accumulates one target's velocity, velocity gradient and
// interaction count over batched evaluation. G is the row-major
// velocity gradient ∂u_i/∂x_j (G[3*i+j]), matching vec.Mat3 layout.
type VortexAcc struct {
	UX, UY, UZ float64
	G          [9]float64
	N          int64
}

// VortexBatch carries the loop-invariant data of vortex evaluation:
// the kernel, σ and its powers, and the ζ Taylor coefficients.
// Construct once per target (or per traversal) with NewVortexBatch; the
// struct is read-only afterwards and safe to share across goroutines.
type VortexBatch struct {
	sm     Smoothing
	sigma  float64
	s3, s5 float64
	z      [4]float64
	series bool
}

// NewVortexBatch precomputes the per-traversal constants of pw. A
// kernel without a series (the singular kernel: q ≡ 1, ζ ≡ 0) keeps
// the direct quotient for F at every radius; it diverges at the origin
// by definition.
func NewVortexBatch(pw Pairwise) VortexBatch {
	z := pw.Sm.ZetaSeries()
	return VortexBatch{
		sm:     pw.Sm,
		sigma:  pw.Sigma,
		s3:     pw.Sigma * pw.Sigma * pw.Sigma,
		s5:     pw.Sigma * pw.Sigma * pw.Sigma * pw.Sigma * pw.Sigma,
		z:      z,
		series: z[0] != 0,
	}
}

// fSeries is F below hSwitch: q(ρ) = 4π(ζ0 ρ³/3 + ζ1 ρ⁵/5 + …), whose
// ρ³ factor cancels |r|³ analytically, so
//
//	F = 4π(ζ0/3 + ζ1 ρ²/5 + ζ2 ρ⁴/7 + ζ3 ρ⁶/9)/σ³
//
// stays finite down to |r| = 0.
func (b *VortexBatch) fSeries(rho float64) float64 {
	r2 := rho * rho
	return 4 * math.Pi * (b.z[0]/3 + r2*(b.z[1]/5+r2*(b.z[2]/7+r2*(b.z[3]/9)))) / b.s3
}

// hSeries is H below hSwitch:
// ρq' − 3q = 4π((2/5)ζ1 ρ⁵ + (4/7)ζ2 ρ⁷ + (6/9)ζ3 ρ⁹ + …).
func (b *VortexBatch) hSeries(rho float64) float64 {
	r2 := rho * rho
	return 4 * math.Pi * (2.0/5*b.z[1] + r2*(4.0/7*b.z[2]+r2*(6.0/9*b.z[3])))
}

// pairGrad adds the velocity and gradient one source induces at
// separation r (d2 = |r|² > 0) with weight vector α.
func (b *VortexBatch) pairGrad(acc *VortexAcc, d2, rx, ry, rz, ax, ay, az float64) {
	d := math.Sqrt(d2)
	rho := d / b.sigma
	var f, hq float64
	if rho < hSwitch {
		if b.series {
			f = b.fSeries(rho)
		} else {
			f = b.sm.Q(rho) / (d2 * d)
		}
		hq = b.hSeries(rho)
	} else {
		q := b.sm.Q(rho)
		f = q / (d2 * d)
		r5 := rho * rho * rho * rho * rho
		hq = (rho*b.sm.QPrime(rho) - 3*q) / r5
	}
	const inv4pi = 1 / (4 * math.Pi)
	cx := ry*az - rz*ay // r × α
	cy := rz*ax - rx*az
	cz := rx*ay - ry*ax
	fs := -f * inv4pi
	gs := -(hq / b.s5) * inv4pi

	acc.UX += fs * cx
	acc.UY += fs * cy
	acc.UZ += fs * cz
	// grad = (r×α) ⊗ r · gs + ε_{ijl} α_l · fs, written out per entry.
	// The fs*0 diagonal terms are ε_{iil} = 0 spelled out: ±0 for any
	// finite F, NaN for an overflowed one (the singular kernel at a
	// denormal separation), so such a pair poisons all nine entries
	// alike.
	acc.G[0] += gs*(cx*rx) + fs*0
	acc.G[1] += gs*(cx*ry) + fs*az
	acc.G[2] += gs*(cx*rz) + fs*(-ay)
	acc.G[3] += gs*(cy*rx) + fs*(-az)
	acc.G[4] += gs*(cy*ry) + fs*0
	acc.G[5] += gs*(cy*rz) + fs*ax
	acc.G[6] += gs*(cz*rx) + fs*ay
	acc.G[7] += gs*(cz*ry) + fs*(-ax)
	acc.G[8] += gs*(cz*rz) + fs*0
}

// AccumGradRange adds the velocity and velocity-gradient contributions
// of every source lane to acc, skipping lane `skip` (pass a negative
// value to skip none). The lane slices must have equal length:
// positions xs/ys/zs, circulation vectors axs/ays/azs. The target sits
// at (tx, ty, tz).
func (b *VortexBatch) AccumGradRange(acc *VortexAcc, tx, ty, tz float64, xs, ys, zs, axs, ays, azs []float64, skip int) {
	n := len(xs)
	var dx, dy, dz, dd [BatchWidth]float64
	for base := 0; base < n; base += BatchWidth {
		blk := n - base
		if blk > BatchWidth {
			blk = BatchWidth
		}
		xb, yb, zb := xs[base:base+blk], ys[base:base+blk], zs[base:base+blk]
		for k := 0; k < blk; k++ {
			rx := tx - xb[k]
			ry := ty - yb[k]
			rz := tz - zb[k]
			dx[k], dy[k], dz[k] = rx, ry, rz
			dd[k] = rx*rx + ry*ry + rz*rz
		}
		ab, bb, cb := axs[base:base+blk], ays[base:base+blk], azs[base:base+blk]
		for k := 0; k < blk; k++ {
			if base+k == skip {
				continue
			}
			if dd[k] != 0 {
				b.pairGrad(acc, dd[k], dx[k], dy[k], dz[k], ab[k], bb[k], cb[k])
			}
			acc.N++
		}
	}
}

// AccumGrad adds one source's velocity and gradient contribution to
// acc for a precomputed separation r = target − source with weight
// vector α — the far-field (particle–cell) leg, where r is measured to
// a cell centroid and α is the cell's circulation sum. It does not
// touch acc.N: far items carry their own interaction accounting.
func (b *VortexBatch) AccumGrad(acc *VortexAcc, rx, ry, rz, ax, ay, az float64) {
	if d2 := rx*rx + ry*ry + rz*rz; d2 != 0 {
		b.pairGrad(acc, d2, rx, ry, rz, ax, ay, az)
	}
}

// pairVel is pairGrad restricted to the velocity. It divides by 4π
// where pairGrad multiplies by the rounded reciprocal, so the two
// velocities can differ in the last bit; each keeps the form its
// callers' results were produced with.
func (b *VortexBatch) pairVel(acc *VortexAcc, d2, rx, ry, rz, ax, ay, az float64) {
	d := math.Sqrt(d2)
	rho := d / b.sigma
	var f float64
	if rho < hSwitch && b.series {
		f = b.fSeries(rho)
	} else {
		f = b.sm.Q(rho) / (d2 * d)
	}
	cx := ry*az - rz*ay
	cy := rz*ax - rx*az
	cz := rx*ay - ry*ax
	vs := -f / (4 * math.Pi)
	acc.UX += vs * cx
	acc.UY += vs * cy
	acc.UZ += vs * cz
}

// AccumVelRange is AccumGradRange restricted to velocities. Only acc's
// velocity components and N are touched.
func (b *VortexBatch) AccumVelRange(acc *VortexAcc, tx, ty, tz float64, xs, ys, zs, axs, ays, azs []float64, skip int) {
	n := len(xs)
	var dx, dy, dz, dd [BatchWidth]float64
	for base := 0; base < n; base += BatchWidth {
		blk := n - base
		if blk > BatchWidth {
			blk = BatchWidth
		}
		xb, yb, zb := xs[base:base+blk], ys[base:base+blk], zs[base:base+blk]
		for k := 0; k < blk; k++ {
			rx := tx - xb[k]
			ry := ty - yb[k]
			rz := tz - zb[k]
			dx[k], dy[k], dz[k] = rx, ry, rz
			dd[k] = rx*rx + ry*ry + rz*rz
		}
		ab, bb, cb := axs[base:base+blk], ays[base:base+blk], azs[base:base+blk]
		for k := 0; k < blk; k++ {
			if base+k == skip {
				continue
			}
			if dd[k] != 0 {
				b.pairVel(acc, dd[k], dx[k], dy[k], dz[k], ab[k], bb[k], cb[k])
			}
			acc.N++
		}
	}
}

// CoulombAcc accumulates one target's potential, field and interaction
// count over batched evaluation.
type CoulombAcc struct {
	Phi        float64
	EX, EY, EZ float64
	N          int64
}

// AccumCoulombRange adds the Plummer-softened Coulomb contributions of
// every source lane to acc, skipping lane `skip` (negative: none), in
// lane order. With r = x_target − x_source and softening ε a source of
// charge Q contributes the potential φ = Q/√(r²+ε²) and the field
// E = Q r/(r²+ε²)^(3/2) (Gaussian units, unit prefactor); an
// unsoftened source at zero separation contributes nothing.
func AccumCoulombRange(acc *CoulombAcc, tx, ty, tz, eps float64, xs, ys, zs, qs []float64, skip int) {
	n := len(xs)
	eps2 := eps * eps
	var dx, dy, dz, dd [BatchWidth]float64
	for base := 0; base < n; base += BatchWidth {
		blk := n - base
		if blk > BatchWidth {
			blk = BatchWidth
		}
		xb, yb, zb := xs[base:base+blk], ys[base:base+blk], zs[base:base+blk]
		for k := 0; k < blk; k++ {
			rx := tx - xb[k]
			ry := ty - yb[k]
			rz := tz - zb[k]
			dx[k], dy[k], dz[k] = rx, ry, rz
			dd[k] = rx*rx + ry*ry + rz*rz + eps2
		}
		qb := qs[base : base+blk]
		for k := 0; k < blk; k++ {
			if base+k == skip {
				continue
			}
			d2 := dd[k]
			if d2 == 0 {
				acc.N++
				continue
			}
			inv := 1 / math.Sqrt(d2)
			qc := qb[k]
			acc.Phi += qc * inv
			es := qc * inv * inv * inv
			acc.EX += es * dx[k]
			acc.EY += es * dy[k]
			acc.EZ += es * dz[k]
			acc.N++
		}
	}
}
