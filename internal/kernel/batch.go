package kernel

import "math"

// This file is the struct-of-arrays companion of pairwise.go: the same
// regularized Biot–Savart and Coulomb interactions, evaluated over
// separate coordinate/weight slices in fixed-width blocks with fully
// scalarized accumulation. The AoS path (Pairwise.VelocityGrad and
// friends) is the reference implementation; every expression here
// mirrors its reference term for term — same operations, same
// association, same branch structure — so a batched sum over a lane
// range is bitwise equal to the AoS loop over the same sources in the
// same order. Constants hoisted out of the loop (σ³, σ⁵, the ζ series)
// are pure recomputations of loop-invariant subexpressions, which is
// bitwise-neutral; anything that would reassociate or strength-reduce
// the per-pair arithmetic (fused accumulation across lanes, reciprocal
// multiplication for the divisions) is deliberately not done.
//
// Zero-separation pairs deserve a note: the AoS kernels return exact
// zeros which the caller then adds into its accumulator. Adding +0 is
// the identity on every value an accumulator can reach here (the
// accumulators start at +0 and IEEE round-to-nearest addition can only
// produce −0 from two −0 terms, never from a +0 start), so the batch
// path skips those additions outright and still matches bitwise.

// BatchWidth is the fixed block width of the SoA inner loops: the
// distance prepass runs over BatchWidth-sized chunks whose temporaries
// fit in registers. The final chunk of a range is the remainder loop
// (length 1..BatchWidth−1), which runs the identical per-lane kernel.
const BatchWidth = 8

// VortexAcc accumulates one target's velocity, velocity gradient and
// interaction count over batched evaluation. G is the row-major
// velocity gradient ∂u_i/∂x_j (G[3*i+j]), matching vec.Mat3 layout.
type VortexAcc struct {
	UX, UY, UZ float64
	G          [9]float64
	N          int64
}

// VortexBatch carries the loop-invariant data of batched vortex
// evaluation: the kernel, σ and its powers, and the ζ Taylor
// coefficients. Construct once per target (or per traversal) with
// NewVortexBatch; the struct is read-only afterwards and safe to share
// across goroutines.
type VortexBatch struct {
	sm     Smoothing
	sigma  float64
	s3, s5 float64
	z      [4]float64
	series bool
}

// NewVortexBatch precomputes the per-traversal constants of pw. The
// power expressions repeat Pairwise.fOf/VelocityGrad exactly so the
// hoisted values are bitwise identical to the per-pair recomputation.
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

// AccumGradRange adds the velocity and velocity-gradient contributions
// of every source lane to acc, skipping lane `skip` (pass a negative
// value to skip none). The lane slices must have equal length:
// positions xs/ys/zs, circulation vectors axs/ays/azs. The target sits
// at (tx, ty, tz). Source lanes are summed in index order, so the
// result is bitwise equal to the AoS loop
//
//	for each i: res += pw.VelocityGrad(x − p_i, α_i)
//
// over the same sources.
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
			d2 := dd[k]
			if d2 == 0 {
				acc.N++ // the AoS loop counts the pair and adds exact zeros
				continue
			}
			rx, ry, rz := dx[k], dy[k], dz[k]
			ax, ay, az := ab[k], bb[k], cb[k]

			// Per-pair kernel: Pairwise.VelocityGrad, scalarized.
			d := math.Sqrt(d2)
			rho := d / b.sigma
			var q float64
			if rho >= hSwitch {
				q = b.sm.Q(rho)
			}
			var f float64
			if rho < hSwitch && b.series {
				r2 := rho * rho
				f = 4 * math.Pi * (b.z[0]/3 + r2*(b.z[1]/5+r2*(b.z[2]/7+r2*(b.z[3]/9)))) / b.s3
			} else if rho < hSwitch {
				f = b.sm.Q(rho) / (d2 * d) // singular (series-free) kernel keeps the direct quotient
			} else {
				f = q / (d2 * d)
			}
			const inv4pi = 1 / (4 * math.Pi)
			// r × α and the shared scale factors of Pairwise.VelocityGrad.
			cx := ry*az - rz*ay
			cy := rz*ax - rx*az
			cz := rx*ay - ry*ax
			fs := -f * inv4pi
			var hq float64
			if rho < hSwitch {
				r2 := rho * rho
				hq = 4 * math.Pi * (2.0/5*b.z[1] + r2*(4.0/7*b.z[2]+r2*(6.0/9*b.z[3])))
			} else {
				r5 := rho * rho * rho * rho * rho
				hq = (rho*b.sm.QPrime(rho) - 3*q) / r5
			}
			gs := -(hq / b.s5) * inv4pi

			acc.UX += fs * cx
			acc.UY += fs * cy
			acc.UZ += fs * cz
			// grad = Outer(r×α, r)·gs + ε_{ijl}α_l·fs, written out per
			// entry. The fs*0 diagonal terms reproduce the reference's
			// m.Scale on the zero entries of the ε matrix (their signed
			// zeros participate in the entry sums).
			acc.G[0] += gs*(cx*rx) + fs*0
			acc.G[1] += gs*(cx*ry) + fs*az
			acc.G[2] += gs*(cx*rz) + fs*(-ay)
			acc.G[3] += gs*(cy*rx) + fs*(-az)
			acc.G[4] += gs*(cy*ry) + fs*0
			acc.G[5] += gs*(cy*rz) + fs*ax
			acc.G[6] += gs*(cz*rx) + fs*ay
			acc.G[7] += gs*(cz*ry) + fs*(-ax)
			acc.G[8] += gs*(cz*rz) + fs*0
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
	d2 := rx*rx + ry*ry + rz*rz
	if d2 == 0 {
		return
	}
	d := math.Sqrt(d2)
	rho := d / b.sigma
	var q float64
	if rho >= hSwitch {
		q = b.sm.Q(rho)
	}
	var f float64
	if rho < hSwitch && b.series {
		r2 := rho * rho
		f = 4 * math.Pi * (b.z[0]/3 + r2*(b.z[1]/5+r2*(b.z[2]/7+r2*(b.z[3]/9)))) / b.s3
	} else if rho < hSwitch {
		f = b.sm.Q(rho) / (d2 * d)
	} else {
		f = q / (d2 * d)
	}
	const inv4pi = 1 / (4 * math.Pi)
	cx := ry*az - rz*ay
	cy := rz*ax - rx*az
	cz := rx*ay - ry*ax
	fs := -f * inv4pi
	var hq float64
	if rho < hSwitch {
		r2 := rho * rho
		hq = 4 * math.Pi * (2.0/5*b.z[1] + r2*(4.0/7*b.z[2]+r2*(6.0/9*b.z[3])))
	} else {
		r5 := rho * rho * rho * rho * rho
		hq = (rho*b.sm.QPrime(rho) - 3*q) / r5
	}
	gs := -(hq / b.s5) * inv4pi

	acc.UX += fs * cx
	acc.UY += fs * cy
	acc.UZ += fs * cz
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

// AccumVelRange is AccumGradRange restricted to velocities — the
// scalar mirror of Pairwise.Velocity summed over the lane range. Only
// acc's velocity components and N are touched.
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
			d2 := dd[k]
			if d2 == 0 {
				acc.N++
				continue
			}
			rx, ry, rz := dx[k], dy[k], dz[k]
			d := math.Sqrt(d2)
			rho := d / b.sigma
			var f float64
			if rho < hSwitch && b.series {
				r2 := rho * rho
				f = 4 * math.Pi * (b.z[0]/3 + r2*(b.z[1]/5+r2*(b.z[2]/7+r2*(b.z[3]/9)))) / b.s3
			} else {
				f = b.sm.Q(rho) / (d2 * d)
			}
			cx := ry*cb[k] - rz*bb[k]
			cy := rz*ab[k] - rx*cb[k]
			cz := rx*bb[k] - ry*ab[k]
			vs := -f / (4 * math.Pi)
			acc.UX += vs * cx
			acc.UY += vs * cy
			acc.UZ += vs * cz
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
// every source lane to acc, skipping lane `skip` (negative: none) —
// the scalar mirror of kernel.Coulomb summed in index order.
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
