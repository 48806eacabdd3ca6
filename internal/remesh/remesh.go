// Package remesh implements particle remeshing for the vortex particle
// method: circulations are interpolated onto a regular grid with the
// M'4 (Monaghan) kernel and fresh particles are created at the occupied
// grid points. Long vortex simulations distort the particle set away
// from the quadrature-quality distribution the convergence theory
// assumes; remeshing restores it.
//
// Remeshing in tree codes for vortex methods is the subject of the
// paper's companion reference [25] (Speck, Krause, Gibbon); this
// package provides the serial algorithm as a library building block.
//
// The M'4 kernel reproduces polynomials up to degree 2, so remeshing
// conserves the total circulation Σα and the linear impulse
// ½Σ x×α exactly (up to the optional cutoff that drops negligible
// particles).
package remesh

import (
	"math"
	"sort"

	"repro/internal/particle"
	"repro/internal/vec"
)

// M4Prime evaluates the one-dimensional M'4 interpolation kernel
//
//	W(x) = 1 − 5x²/2 + 3|x|³/2          for |x| < 1,
//	W(x) = (2−|x|)²(1−|x|)/2            for 1 ≤ |x| < 2,
//	W(x) = 0                            otherwise.
func M4Prime(x float64) float64 {
	x = math.Abs(x)
	switch {
	case x < 1:
		return 1 + x*x*(-2.5+1.5*x)
	case x < 2:
		d := 2 - x
		return 0.5 * d * d * (1 - x)
	default:
		return 0
	}
}

// Config parameterizes a remeshing pass.
type Config struct {
	// H is the grid spacing. Zero selects the system's inter-particle
	// spacing estimate (cube root of the mean particle volume).
	H float64
	// Cutoff drops grid particles with |α| below Cutoff·max|α|
	// (0 keeps everything, including numerically tiny particles).
	Cutoff float64
}

// Stats reports what a remeshing pass did.
type Stats struct {
	Before, After int
	Dropped       int
	// CirculationDrift is |Σα_after − Σα_before| (zero up to rounding
	// when Cutoff is zero).
	CirculationDrift float64
}

// Apply remeshes the system onto a regular grid and returns the new
// particle set together with pass statistics. The input is not
// modified; σ is carried over.
func Apply(sys *particle.System, cfg Config) (*particle.System, Stats) {
	st := Stats{Before: sys.N()}
	if sys.N() == 0 {
		return sys.Clone(), st
	}
	h := cfg.H
	if h <= 0 {
		meanVol := 0.0
		for _, p := range sys.Particles {
			meanVol += p.Vol
		}
		meanVol /= float64(sys.N())
		if meanVol <= 0 {
			meanVol = 1e-3
		}
		h = math.Cbrt(meanVol)
	}

	type cellKey struct{ i, j, k int32 }
	grid := make(map[cellKey]vec.Vec3, 4*sys.N())
	var before vec.Vec3
	for _, p := range sys.Particles {
		before = before.Add(p.Alpha)
		// Base cell: the particle influences the 4×4×4 neighborhood.
		bx := int32(math.Floor(p.Pos.X/h)) - 1
		by := int32(math.Floor(p.Pos.Y/h)) - 1
		bz := int32(math.Floor(p.Pos.Z/h)) - 1
		for di := int32(0); di < 4; di++ {
			wx := M4Prime(p.Pos.X/h - float64(bx+di))
			if wx == 0 {
				continue
			}
			for dj := int32(0); dj < 4; dj++ {
				wy := M4Prime(p.Pos.Y/h - float64(by+dj))
				if wy == 0 {
					continue
				}
				for dk := int32(0); dk < 4; dk++ {
					wz := M4Prime(p.Pos.Z/h - float64(bz+dk))
					if wz == 0 {
						continue
					}
					key := cellKey{bx + di, by + dj, bz + dk}
					grid[key] = grid[key].Add(p.Alpha.Scale(wx * wy * wz))
				}
			}
		}
	}

	// Threshold and rebuild.
	maxA := 0.0
	for _, a := range grid {
		maxA = math.Max(maxA, a.Norm())
	}
	thresh := cfg.Cutoff * maxA
	keys := make([]cellKey, 0, len(grid))
	for k, a := range grid {
		if a.Norm() >= thresh && a.Norm() > 0 {
			//lint:ignore determinism collection order is discarded by the sort below
			keys = append(keys, k)
		}
	}
	// Deterministic output order.
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.i != kb.i {
			return ka.i < kb.i
		}
		if ka.j != kb.j {
			return ka.j < kb.j
		}
		return ka.k < kb.k
	})

	out := &particle.System{Sigma: sys.Sigma, Particles: make([]particle.Particle, 0, len(keys))}
	var after vec.Vec3
	vol := h * h * h
	for label, k := range keys {
		a := grid[cellKey{k.i, k.j, k.k}]
		after = after.Add(a)
		out.Particles = append(out.Particles, particle.Particle{
			Pos:   vec.V3(float64(k.i)*h, float64(k.j)*h, float64(k.k)*h),
			Alpha: a,
			Vol:   vol,
			Label: label,
		})
	}
	st.After = out.N()
	st.Dropped = len(grid) - len(keys)
	st.CirculationDrift = after.Sub(before).Norm()
	return out, st
}
