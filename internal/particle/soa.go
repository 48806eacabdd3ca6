package particle

// Layout is read by nothing; it goes when internal/bench stops naming it.
type Layout int

// SoA is a struct-of-arrays mirror of a System: one slice per
// component, gathered under a permutation so that lane i holds
// particle order[i]. The tree gathers the Morton-sorted permutation at
// build time, which turns every leaf's particle range into a
// contiguous run of all lanes — the batched kernels then stream
// through memory linearly instead of hopping through 72-byte Particle
// records in permuted order.
//
// Lanes are gathered per discipline: GatherVortex fills X/Y/Z and
// AX/AY/AZ (the circulation vector Γ), GatherCoulomb fills X/Y/Z and
// Q. The smoothing core size σ is a single scalar for the whole
// system and is carried as a field, not a lane. Ungathered lanes keep
// length zero.
//
// The gather is a pure bitwise copy of the particle data (DESIGN.md
// §14).
type SoA struct {
	X, Y, Z    []float64 // positions
	AX, AY, AZ []float64 // circulation vectors Γ (vortex discipline)
	Q          []float64 // charges (Coulomb discipline)
	Sigma      float64   // smoothing core size σ (scalar, mirrors System.Sigma)
}

// N returns the number of gathered lanes.
func (s *SoA) N() int { return len(s.X) }

// grow returns lane resized to length n, reusing its capacity — the
// arena contract: steady-state gathers allocate nothing once every
// lane has reached its high-water length.
func grow(lane []float64, n int) []float64 {
	if cap(lane) < n {
		return make([]float64, n)
	}
	return lane[:n]
}

// GatherVortex fills the position and circulation lanes from sys under
// the permutation: lane i = sys.Particles[order[i]]. A nil order
// gathers in index order (the direct solver's identity layout).
func (s *SoA) GatherVortex(sys *System, order []int) {
	n := sys.N()
	s.X, s.Y, s.Z = grow(s.X, n), grow(s.Y, n), grow(s.Z, n)
	s.AX, s.AY, s.AZ = grow(s.AX, n), grow(s.AY, n), grow(s.AZ, n)
	s.Q = s.Q[:0]
	s.Sigma = sys.Sigma
	if order == nil {
		for i := range sys.Particles {
			p := &sys.Particles[i]
			s.X[i], s.Y[i], s.Z[i] = p.Pos.X, p.Pos.Y, p.Pos.Z
			s.AX[i], s.AY[i], s.AZ[i] = p.Alpha.X, p.Alpha.Y, p.Alpha.Z
		}
		return
	}
	for i, idx := range order {
		p := &sys.Particles[idx]
		s.X[i], s.Y[i], s.Z[i] = p.Pos.X, p.Pos.Y, p.Pos.Z
		s.AX[i], s.AY[i], s.AZ[i] = p.Alpha.X, p.Alpha.Y, p.Alpha.Z
	}
}

// GatherCoulomb fills the position and charge lanes from sys under the
// permutation; a nil order gathers in index order.
func (s *SoA) GatherCoulomb(sys *System, order []int) {
	n := sys.N()
	s.X, s.Y, s.Z = grow(s.X, n), grow(s.Y, n), grow(s.Z, n)
	s.Q = grow(s.Q, n)
	s.AX, s.AY, s.AZ = s.AX[:0], s.AY[:0], s.AZ[:0]
	s.Sigma = sys.Sigma
	if order == nil {
		for i := range sys.Particles {
			p := &sys.Particles[i]
			s.X[i], s.Y[i], s.Z[i] = p.Pos.X, p.Pos.Y, p.Pos.Z
			s.Q[i] = p.Charge
		}
		return
	}
	for i, idx := range order {
		p := &sys.Particles[idx]
		s.X[i], s.Y[i], s.Z[i] = p.Pos.X, p.Pos.Y, p.Pos.Z
		s.Q[i] = p.Charge
	}
}
