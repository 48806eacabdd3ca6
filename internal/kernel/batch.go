package kernel

import "math"

// This file is the definition of the pairwise arithmetic: the
// regularized Biot–Savart interaction (velocity + gradient, velocity
// only) and the Plummer-softened Coulomb interaction, evaluated over
// struct-of-arrays source lanes into scalar accumulators. Every
// evaluator — direct summation, the tree's near and far legs, the
// distributed tree's remote cells — calls these entry points, so there
// is no second copy to keep in step.
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
// where F'(r)/|r| = H(ρ)/σ⁵ with H(ρ) = (ρ q'(ρ) − 3 q(ρ))/ρ⁵.
//
// For the algebraic family (every production caller) both are closed
// forms in w = 1/(1+ρ²): F σ³ = w^(3/2) P_F(w) and H = w^(5/2) P_H(w)
// with P_H = −(3 P_F + 2w P_F') — one division, one square root and
// two Horner chains per pair. Every coefficient of P_F is ≥ 0 for the
// four members and 0 < w ≤ 1, so each chain sums terms of one sign and
// nothing cancels at any radius (NUMERICS.md §1–2). The other kernels (Gaussian, singular) go through
// the Smoothing interface and, below hSwitch, the Taylor series of ζ
// (fSeries, hSeries): the two terms of H cancel to leading order there,
// and the direct quotient q/|r|³ turns into 0/0 at denormal
// separations.
//
// Sources are summed strictly in lane order with one accumulation
// chain per output component, which is what makes a sum independent of
// how its range was cut into blocks, leaves, ranks or worker chunks. A
// source at zero separation contributes nothing (the self-interaction
// convention); the range loops still count the pair.

// BatchWidth is the block width of the Coulomb loop's distance prepass
// and of the tree's AoS source adapters: chunks whose temporaries fit
// in registers. The vortex loops walk their lanes one by one — with no
// interface call left in the pair body the prepass bought nothing
// (PERFORMANCE.md "Kernel-level notes").
const BatchWidth = 8

// hSwitch is the scaled radius below which the non-algebraic kernels
// take F and H from their series forms. At the switch point both
// branches agree to better than 1e-6 relative (verified by tests): the
// direct form of H loses ~4 digits to cancellation there while the
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

// VortexBatch carries the loop-invariant data of vortex evaluation.
// Construct once per evaluation with NewVortexBatch and pass a pointer;
// the struct is read-only afterwards and safe to share across
// goroutines.
type VortexBatch struct {
	// Algebraic family: σ⁻² and the Horner tables of −P_F/4πσ³ and
	// −P_H/4πσ⁵, lowest power of w first.
	closed bool
	is2    float64
	fc, hc [maxAlgebraicN - 1]float64

	// Any other kernel: the interface, σ and its powers, and the ζ
	// Taylor coefficients.
	sm     Smoothing
	sigma  float64
	s3, s5 float64
	z      [4]float64
	series bool
}

// NewVortexBatch precomputes the per-evaluation constants of pw. The
// form of the pair kernel follows from the kernel's type alone: closed
// for the algebraic family, interface + series otherwise. A kernel
// without a series (the singular kernel: q ≡ 1, ζ ≡ 0) keeps the direct
// quotient for F at every radius; it diverges at the origin by
// definition.
func NewVortexBatch(pw Pairwise) VortexBatch {
	const inv4pi = 1 / (4 * math.Pi)
	s2 := pw.Sigma * pw.Sigma
	s3 := s2 * pw.Sigma
	s5 := s3 * pw.Sigma * pw.Sigma // left to right: the oracle holds the quotient kernels to 1 ulp
	if k, ok := pw.Sm.(*algebraic); ok {
		b := VortexBatch{closed: true, is2: 1 / s2}
		for i, f := range k.pf {
			b.fc[i] = -f * inv4pi / s3
			b.hc[i] = float64(3+2*i) * f * inv4pi / s5
		}
		return b
	}
	z := pw.Sm.ZetaSeries()
	return VortexBatch{sm: pw.Sm, sigma: pw.Sigma, s3: s3, s5: s5, z: z, series: z[0] != 0}
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

// openFH is −F/4π and −H/4πσ⁵ at separation d2 = |r|² > 0 for a kernel
// outside the algebraic family.
func (b *VortexBatch) openFH(d2 float64) (fs, gs float64) {
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
	return -f * inv4pi, -(hq / b.s5) * inv4pi
}

// pairGrad adds the velocity and gradient one source induces at
// separation r (d2 = |r|² > 0) with weight vector α. An overflowing
// d2·σ⁻² gives w = 0 and a contribution of exactly zero.
func (b *VortexBatch) pairGrad(acc *VortexAcc, d2, rx, ry, rz, ax, ay, az float64) {
	var fs, gs float64
	if b.closed {
		w := 1 / (1 + d2*b.is2)
		w32 := w * math.Sqrt(w)
		fs = w32 * horner(&b.fc, w)
		gs = w32 * w * horner(&b.hc, w)
	} else {
		fs, gs = b.openFH(d2)
	}
	cx := ry*az - rz*ay // r × α
	cy := rz*ax - rx*az
	cz := rx*ay - ry*ax
	acc.UX += fs * cx
	acc.UY += fs * cy
	acc.UZ += fs * cz
	// grad = gs · (r×α) ⊗ r + fs · ε_{ijl} α_l, one row at a time.
	gx, gy, gz := gs*cx, gs*cy, gs*cz
	fx, fy, fz := fs*ax, fs*ay, fs*az
	acc.G[0] += gx * rx
	acc.G[1] += gx*ry + fz
	acc.G[2] += gx*rz - fy
	acc.G[3] += gy*rx - fz
	acc.G[4] += gy * ry
	acc.G[5] += gy*rz + fx
	acc.G[6] += gz*rx + fy
	acc.G[7] += gz*ry - fx
	acc.G[8] += gz * rz
}

// AccumGradRange adds the velocity and velocity-gradient contributions
// of every source lane to acc, skipping lane `skip` (pass a negative
// value to skip none). The lane slices must have equal length:
// positions xs/ys/zs, circulation vectors axs/ays/azs. The target sits
// at (tx, ty, tz).
func (b *VortexBatch) AccumGradRange(acc *VortexAcc, tx, ty, tz float64, xs, ys, zs, axs, ays, azs []float64, skip int) {
	n := len(xs)
	ys, zs, axs, ays, azs = ys[:n], zs[:n], axs[:n], ays[:n], azs[:n]
	for k := 0; k < n; k++ {
		if k == skip {
			continue
		}
		rx := tx - xs[k]
		ry := ty - ys[k]
		rz := tz - zs[k]
		if d2 := rx*rx + ry*ry + rz*rz; d2 != 0 {
			b.pairGrad(acc, d2, rx, ry, rz, axs[k], ays[k], azs[k])
		}
		acc.N++
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

// pairVel is the velocity half of pairGrad, bit for bit.
func (b *VortexBatch) pairVel(acc *VortexAcc, d2, rx, ry, rz, ax, ay, az float64) {
	var fs float64
	if b.closed {
		w := 1 / (1 + d2*b.is2)
		fs = w * math.Sqrt(w) * horner(&b.fc, w)
	} else {
		fs, _ = b.openFH(d2)
	}
	acc.UX += fs * (ry*az - rz*ay)
	acc.UY += fs * (rz*ax - rx*az)
	acc.UZ += fs * (rx*ay - ry*ax)
}

// AccumVelRange is AccumGradRange restricted to velocities. Only acc's
// velocity components and N are touched.
func (b *VortexBatch) AccumVelRange(acc *VortexAcc, tx, ty, tz float64, xs, ys, zs, axs, ays, azs []float64, skip int) {
	n := len(xs)
	ys, zs, axs, ays, azs = ys[:n], zs[:n], axs[:n], ays[:n], azs[:n]
	for k := 0; k < n; k++ {
		if k == skip {
			continue
		}
		rx := tx - xs[k]
		ry := ty - ys[k]
		rz := tz - zs[k]
		if d2 := rx*rx + ry*ry + rz*rz; d2 != 0 {
			b.pairVel(acc, d2, rx, ry, rz, axs[k], ays[k], azs[k])
		}
		acc.N++
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
