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
// Both are closed forms in w = 1/(1+ρ²): F σ³ = w^(3/2) P_F(w) and
// H = w^(5/2) P_H(w) with P_H = −(3 P_F + 2w P_F') — one division, one
// square root and two Horner chains per pair. Every coefficient of P_F
// is ≥ 0 for both kernels and 0 < w ≤ 1, so each chain sums terms of
// one sign and nothing cancels at any radius, down to denormal
// separations (NUMERICS.md §1–2).
//
// Sources are summed strictly in lane order with one accumulation
// chain per output component, which is what makes a sum independent of
// how its range was cut into blocks, leaves, ranks or worker chunks. A
// source at zero separation contributes nothing (the self-interaction
// convention); the range loops still count the pair.

// BatchWidth is the block width of the Coulomb loop's distance prepass
// and of the direct solver's work chunks: chunks whose temporaries fit
// in registers. The vortex loops walk their lanes one by one — with no
// interface call left in the pair body the prepass bought nothing
// (PERFORMANCE.md "Kernel-level notes").
const BatchWidth = 8

// VortexAcc accumulates one target's velocity, velocity gradient and
// interaction count over batched evaluation. G is the row-major
// velocity gradient ∂u_i/∂x_j (G[3*i+j]), matching vec.Mat3 layout.
type VortexAcc struct {
	UX, UY, UZ float64
	G          [9]float64
	N          int64
}

// VortexBatch carries the loop-invariant data of vortex evaluation:
// σ⁻² and the Horner tables of −P_F/4πσ³ and −P_H/4πσ⁵, lowest power
// of w first. Construct once per evaluation with NewVortexBatch and
// pass a pointer; the struct is read-only afterwards and safe to share
// across goroutines.
type VortexBatch struct {
	is2    float64
	fc, hc [maxAlgebraicN - 1]float64
}

// NewVortexBatch precomputes the per-evaluation constants of pw.
func NewVortexBatch(pw Pairwise) VortexBatch {
	const inv4pi = 1 / (4 * math.Pi)
	s2 := pw.Sigma * pw.Sigma
	s3 := s2 * pw.Sigma
	s5 := s3 * pw.Sigma * pw.Sigma // left to right: the association the pinned hashes were taken with
	b := VortexBatch{is2: 1 / s2}
	for i, f := range pw.Sm.pf {
		b.fc[i] = -f * inv4pi / s3
		b.hc[i] = float64(3+2*i) * f * inv4pi / s5
	}
	return b
}

// pairGrad adds the velocity and gradient one source induces at
// separation r (d2 = |r|² > 0) with weight vector α. An overflowing
// d2·σ⁻² gives w = 0 and a contribution of exactly zero.
func (b *VortexBatch) pairGrad(acc *VortexAcc, d2, rx, ry, rz, ax, ay, az float64) {
	w := 1 / (1 + d2*b.is2)
	w32 := w * math.Sqrt(w)
	fs := w32 * horner(&b.fc, w)
	gs := w32 * w * horner(&b.hc, w)
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
	w := 1 / (1 + d2*b.is2)
	fs := w * math.Sqrt(w) * horner(&b.fc, w)
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
// E = Q r/(r²+ε²)^(3/2) (unit prefactor); an
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
