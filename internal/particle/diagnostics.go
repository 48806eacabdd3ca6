package particle

import (
	"math"

	"repro/internal/vec"
)

// Diagnostics collects the scalar monitors used to track the vortex
// sheet evolution (Fig. 1) and to sanity-check conservation properties.
type Diagnostics struct {
	TotalCirculation vec.Vec3 // Ω = Σ α_p (invariant of the transpose scheme)
	LinearImpulse    vec.Vec3 // I = ½ Σ x_p × α_p
	AngularImpulse   vec.Vec3 // A = ⅓ Σ x_p × (x_p × α_p)
	Centroid         vec.Vec3 // |α|-weighted position centroid
	ZMin, ZMax       float64  // vertical extent (tracks sheet collapse)
	MaxAlpha         float64  // max_p |α_p|
}

// Diagnose computes the diagnostics of the current particle state.
func Diagnose(s *System) Diagnostics {
	var d Diagnostics
	d.ZMin, d.ZMax = math.Inf(1), math.Inf(-1)
	wsum := 0.0
	for _, p := range s.Particles {
		d.TotalCirculation = d.TotalCirculation.Add(p.Alpha)
		d.LinearImpulse = d.LinearImpulse.AddScaled(0.5, p.Pos.Cross(p.Alpha))
		d.AngularImpulse = d.AngularImpulse.AddScaled(1.0/3, p.Pos.Cross(p.Pos.Cross(p.Alpha)))
		w := p.Alpha.Norm()
		wsum += w
		d.Centroid = d.Centroid.AddScaled(w, p.Pos)
		d.ZMin = math.Min(d.ZMin, p.Pos.Z)
		d.ZMax = math.Max(d.ZMax, p.Pos.Z)
		d.MaxAlpha = math.Max(d.MaxAlpha, w)
	}
	if wsum > 0 {
		d.Centroid = d.Centroid.Scale(1 / wsum)
	}
	if len(s.Particles) == 0 {
		d.ZMin, d.ZMax = 0, 0
	}
	return d
}

// StateInvariants holds the conserved quantities of the vortex system
// as computed directly from a packed ODE state — the guard layer's
// invariant monitors track these across PFASST blocks without
// unpacking into a System.
type StateInvariants struct {
	TotalCirculation vec.Vec3 // Ω = Σ α_p
	LinearImpulse    vec.Vec3 // I = ½ Σ x_p × α_p
	AngularImpulse   vec.Vec3 // A = ⅓ Σ x_p × (x_p × α_p)
}

// DiagnoseState computes the conserved invariants of a packed state
// (layout per Pack: [x y z αx αy αz] per particle) with the same
// accumulation order as Diagnose, so the two agree bitwise on matching
// data. The state length must be a multiple of six.
func DiagnoseState(u []float64) StateInvariants {
	var d StateInvariants
	for o := 0; o+6 <= len(u); o += 6 {
		pos := vec.V3(u[o+0], u[o+1], u[o+2])
		alpha := vec.V3(u[o+3], u[o+4], u[o+5])
		d.TotalCirculation = d.TotalCirculation.Add(alpha)
		d.LinearImpulse = d.LinearImpulse.AddScaled(0.5, pos.Cross(alpha))
		d.AngularImpulse = d.AngularImpulse.AddScaled(1.0/3, pos.Cross(pos.Cross(alpha)))
	}
	return d
}

// Floats returns the invariants as a flat 9-element slice (checkpoint
// diagnostics block ordering: Ω, I, A).
func (d StateInvariants) Floats() []float64 {
	return []float64{
		d.TotalCirculation.X, d.TotalCirculation.Y, d.TotalCirculation.Z,
		d.LinearImpulse.X, d.LinearImpulse.Y, d.LinearImpulse.Z,
		d.AngularImpulse.X, d.AngularImpulse.Y, d.AngularImpulse.Z,
	}
}

// InvariantsFromFloats inverts Floats; slices of the wrong length
// yield the zero value and false.
func InvariantsFromFloats(f []float64) (StateInvariants, bool) {
	if len(f) != 9 {
		return StateInvariants{}, false
	}
	return StateInvariants{
		TotalCirculation: vec.V3(f[0], f[1], f[2]),
		LinearImpulse:    vec.V3(f[3], f[4], f[5]),
		AngularImpulse:   vec.V3(f[6], f[7], f[8]),
	}, true
}

// RelMaxPositionError returns the relative maximum error of particle
// positions between s and the reference system ref, the error measure
// of Fig. 7:
//
//	max_p |x_p − x_p^ref|_∞ / max_p |x_p^ref|_∞.
//
// Both systems must hold the same particles in the same order.
func RelMaxPositionError(s, ref *System) float64 {
	if len(s.Particles) != len(ref.Particles) {
		panic("particle: RelMaxPositionError on systems of different size")
	}
	maxErr, maxRef := 0.0, 0.0
	for i := range s.Particles {
		maxErr = math.Max(maxErr, s.Particles[i].Pos.Sub(ref.Particles[i].Pos).NormInf())
		maxRef = math.Max(maxRef, ref.Particles[i].Pos.NormInf())
	}
	if maxRef == 0 {
		return maxErr
	}
	return maxErr / maxRef
}

// MaxSpeed returns max_p |v_p| for a velocity slice parallel to the
// particle slice.
func MaxSpeed(vel []vec.Vec3) float64 {
	m := 0.0
	for _, v := range vel {
		m = math.Max(m, v.Norm())
	}
	return m
}

// FlowDiagnostics are the quadratic flow invariants that require the
// induced velocities (from any solver) alongside the particle state.
type FlowDiagnostics struct {
	// KineticEnergy is Lamb's unbounded-domain functional
	// E = ∫ u·(x×ω) dV ≈ Σ_p u_p·(x_p×α_p), equal to ½∫|u|² dV for
	// decaying flows and conserved by the inviscid dynamics.
	KineticEnergy float64
	// Helicity is H = ∫ u·ω dV ≈ Σ_p u_p·α_p (zero for mirror-
	// symmetric flows such as the vortex ring).
	Helicity float64
	// Enstrophy is the particle proxy Σ_p |α_p|²/vol_p ≈ ∫|ω|² dV.
	Enstrophy float64
}

// DiagnoseFlow computes the velocity-dependent invariants; vel must be
// parallel to the particle slice.
func DiagnoseFlow(s *System, vel []vec.Vec3) FlowDiagnostics {
	if len(vel) != s.N() {
		panic("particle: DiagnoseFlow needs one velocity per particle")
	}
	var d FlowDiagnostics
	for i, p := range s.Particles {
		d.KineticEnergy += vel[i].Dot(p.Pos.Cross(p.Alpha))
		d.Helicity += vel[i].Dot(p.Alpha)
		if p.Vol > 0 {
			d.Enstrophy += p.Alpha.Norm2() / p.Vol
		}
	}
	return d
}
