// Package particle defines the particle ensembles evolved by the
// space-time parallel N-body solver: vortex particles carrying a
// circulation vector for the vortex particle method of Section II of the
// paper, and charged particles for the Coulomb discipline used in the
// strong-scaling experiments (Fig. 5).
//
// The package also provides the model problems of the paper — the
// spherical vortex sheet and the homogeneous neutral Coulomb cloud — and
// the flat-state packing used by the time integrators (positions and
// circulation vectors interleaved into a []float64 of length 6N).
package particle

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vec"
)

// Particle is a regularized vortex particle (or, in the Coulomb
// discipline, a charged particle: Charge is then used instead of Alpha).
type Particle struct {
	Pos    vec.Vec3 // position x_p
	Alpha  vec.Vec3 // circulation vector α_p = ω(x_p)·vol_p
	Vol    float64  // quadrature volume vol_p
	Charge float64  // charge (Coulomb discipline only)
	Label  int      // stable identity across redistribution
}

// System is an ensemble of particles together with the smoothing core
// size σ shared by all of them.
type System struct {
	Particles []Particle
	Sigma     float64
}

// N returns the number of particles.
func (s *System) N() int { return len(s.Particles) }

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := &System{Sigma: s.Sigma, Particles: make([]Particle, len(s.Particles))}
	copy(c.Particles, s.Particles)
	return c
}

// StateLen returns the length of the flat ODE state: six doubles per
// particle (position and circulation vector).
func (s *System) StateLen() int { return 6 * len(s.Particles) }

// Pack writes positions and circulation vectors into dst, which must
// have length StateLen, and returns dst. Layout per particle:
// [x y z αx αy αz].
func (s *System) Pack(dst []float64) []float64 {
	if len(dst) != s.StateLen() {
		panic(fmt.Sprintf("particle: Pack dst length %d, want %d", len(dst), s.StateLen()))
	}
	for i, p := range s.Particles {
		o := 6 * i
		dst[o+0], dst[o+1], dst[o+2] = p.Pos.X, p.Pos.Y, p.Pos.Z
		dst[o+3], dst[o+4], dst[o+5] = p.Alpha.X, p.Alpha.Y, p.Alpha.Z
	}
	return dst
}

// PackNew allocates a fresh flat state and packs into it.
func (s *System) PackNew() []float64 { return s.Pack(make([]float64, s.StateLen())) }

// Unpack reads positions and circulation vectors from src (length
// StateLen) back into the particle slice; volumes, charges and labels
// are untouched.
func (s *System) Unpack(src []float64) {
	if len(src) != s.StateLen() {
		panic(fmt.Sprintf("particle: Unpack src length %d, want %d", len(src), s.StateLen()))
	}
	for i := range s.Particles {
		o := 6 * i
		s.Particles[i].Pos = vec.V3(src[o+0], src[o+1], src[o+2])
		s.Particles[i].Alpha = vec.V3(src[o+3], src[o+4], src[o+5])
	}
}

// Bounds returns the axis-aligned bounding box of all particle
// positions. For an empty system both corners are zero.
func (s *System) Bounds() (lo, hi vec.Vec3) {
	if len(s.Particles) == 0 {
		return vec.Zero3, vec.Zero3
	}
	lo, hi = s.Particles[0].Pos, s.Particles[0].Pos
	for _, p := range s.Particles[1:] {
		lo = lo.Min(p.Pos)
		hi = hi.Max(p.Pos)
	}
	return lo, hi
}

// SheetConfig parameterizes the spherical vortex sheet of Section II.
type SheetConfig struct {
	N      int     // number of particles
	Radius float64 // sphere radius R (paper: 1)
	// SigmaOverH sets σ = SigmaOverH·h with h = sqrt(4π/N)·R
	// (paper: σ ≈ 18.53 h).
	SigmaOverH float64
	// Sigma, when positive, overrides SigmaOverH with an absolute core
	// size. Scaled-down reproductions keep the paper's absolute
	// σ ≈ 0.65 (= 18.53·h at N = 10,000) rather than the h-relative
	// value, which would over-smooth small ensembles into rigid bodies.
	Sigma float64
}

// DefaultSheet returns the paper's configuration for n particles:
// R = 1, σ = 18.53 h.
func DefaultSheet(n int) SheetConfig {
	return SheetConfig{N: n, Radius: 1, SigmaOverH: 18.53}
}

// SphericalVortexSheet builds the paper's model problem: n particles on
// a sphere of radius R centered at the origin with vorticity
//
//	ω(ρ,θ,φ) = (3/8π) sin(θ) e_φ                      (Eq. 7)
//
// (with e_φ oriented so that the sheet translates downward, Fig. 1)
//
// and spacing h = sqrt(4π/N)·R, core size σ = SigmaOverH·h (Eq. 8). The
// quadrature weight attached to each particle is the equal-area surface
// patch h² = (4π/N)R², so α_p = ω(x_p)·h². Particles are placed on a
// deterministic Fibonacci lattice, which distributes them with
// near-equal area per particle.
//
// The initial condition is the classical vortex-sheet representation of
// flow past a sphere with unit free-stream velocity along the z-axis:
// the sheet translates downward, collapses from the top and rolls up
// into a traveling vortex ring (Fig. 1).
func SphericalVortexSheet(cfg SheetConfig) *System {
	if cfg.N <= 0 {
		panic("particle: SphericalVortexSheet needs N > 0")
	}
	if cfg.Radius <= 0 {
		panic("particle: SphericalVortexSheet needs Radius > 0")
	}
	if cfg.SigmaOverH <= 0 && cfg.Sigma <= 0 {
		panic("particle: SphericalVortexSheet needs SigmaOverH or Sigma > 0")
	}
	n := cfg.N
	h := math.Sqrt(4*math.Pi/float64(n)) * cfg.Radius
	area := h * h
	sigma := cfg.Sigma
	if sigma <= 0 {
		sigma = cfg.SigmaOverH * h
	}
	sys := &System{
		Particles: make([]Particle, n),
		Sigma:     sigma,
	}
	// Fibonacci (golden-spiral) lattice on the sphere.
	golden := (1 + math.Sqrt(5)) / 2
	for i := 0; i < n; i++ {
		z := 1 - (2*float64(i)+1)/float64(n) // cos θ, equal-area bands
		theta := math.Acos(z)
		phi := 2 * math.Pi * math.Mod(float64(i)/golden, 1)
		sinT := math.Sin(theta)
		pos := vec.V3(
			cfg.Radius*sinT*math.Cos(phi),
			cfg.Radius*sinT*math.Sin(phi),
			cfg.Radius*z,
		)
		// e_φ = (−sin φ, cos φ, 0). The azimuthal direction is chosen
		// so the sheet's impulse points along −z and the sphere
		// translates downward while rolling up, as described for
		// Fig. 1 of the paper.
		ephi := vec.V3(math.Sin(phi), -math.Cos(phi), 0)
		omega := ephi.Scale(3 / (8 * math.Pi) * sinT)
		sys.Particles[i] = Particle{
			Pos:   pos,
			Alpha: omega.Scale(area),
			Vol:   area,
			Label: i,
		}
	}
	return sys
}

// HomogeneousCoulomb builds the workload of the Fig. 5 strong-scaling
// study: n particles uniformly distributed in the unit cube with
// alternating charges ±1 (overall neutral for even n). The returned
// system has σ set to a Plummer-type softening of one tenth of the mean
// inter-particle spacing.
func HomogeneousCoulomb(n int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	sys := &System{
		Particles: make([]Particle, n),
		Sigma:     0.1 * math.Pow(1/float64(n), 1.0/3),
	}
	for i := 0; i < n; i++ {
		q := 1.0
		if i%2 == 1 {
			q = -1.0
		}
		sys.Particles[i] = Particle{
			Pos:    vec.V3(rng.Float64(), rng.Float64(), rng.Float64()),
			Charge: q,
			Vol:    1 / float64(n),
			Label:  i,
		}
	}
	return sys
}

// RandomVortexBlob builds a normally distributed cloud of n vortex
// particles with random circulation vectors; it is the generic test
// workload.
func RandomVortexBlob(n int, sigma float64, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	sys := &System{Particles: make([]Particle, n), Sigma: sigma}
	for i := 0; i < n; i++ {
		sys.Particles[i] = Particle{
			Pos:   vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
			Alpha: vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(1 / float64(n)),
			Vol:   1 / float64(n),
			Label: i,
		}
	}
	return sys
}

// ClusteredVortexSheet builds the late-time analog of the Fig. 1
// evolution: half the particles form the smooth spherical vortex sheet
// and half the turbulent debris cloud shed by the roll-up below it — a
// deterministic self-similar cascade (clusters of clusters over several
// scales, the particle analog of a power-law vorticity spectrum).
// Targets inside the cascade see cells failing the MAC at every scale,
// so their tree walks are several times more expensive than sheet
// targets' — exactly the clustered regime where static work splits
// load-imbalance and the paper's dynamically scheduled traversal pays
// off. The layout is deterministic (Fibonacci lattice on the sheet,
// golden-spiral offsets in the cascade).
func ClusteredVortexSheet(n int) *System {
	ns := n / 2
	sys := SphericalVortexSheet(DefaultSheet(n - ns))
	const (
		coreR  = 0.3  // outermost cascade scale
		coreZ  = -6   // cloud center far downstream of the sphere
		lam    = 0.18 // per-level shrink factor
		branch = 8    // clusters per level
		levels = 5    // cascade depth
	)
	// Golden-spiral points on the unit sphere: the cluster offsets
	// reused at every scale.
	golden := math.Pi * (3 - math.Sqrt(5))
	offs := make([]vec.Vec3, branch)
	for j := 0; j < branch; j++ {
		z := 1 - (2*float64(j)+1)/float64(branch)
		sinT := math.Sqrt(1 - z*z)
		phi := golden * float64(j)
		offs[j] = vec.V3(sinT*math.Cos(phi), sinT*math.Sin(phi), z)
	}
	circ := 4 * math.Pi / float64(n)
	for i := 0; i < ns; i++ {
		// The base-`branch` digits of i select one cluster per level,
		// fastest digit at the coarsest scale so every coarse cluster
		// fills evenly.
		pos := vec.V3(0, 0, coreZ)
		d := i
		scale := coreR
		for k := 0; k < levels; k++ {
			pos = pos.Add(offs[d%branch].Scale(scale))
			d /= branch
			scale *= lam
		}
		// Swirling vorticity about the cloud axis, scaled like the
		// sheet's α = ω h².
		phi := math.Atan2(pos.Y, pos.X)
		sys.Particles = append(sys.Particles, Particle{
			Pos:   pos,
			Alpha: vec.V3(-math.Sin(phi), math.Cos(phi), 0).Scale(circ),
			Vol:   circ,
			Label: sys.N(),
		})
	}
	return sys
}

// ScaledSheet returns the sheet configuration for scaled-down
// reproductions: n particles with the paper's *absolute* core size
// σ = 18.53·h(N=10,000) ≈ 0.657, preserving the reference dynamics
// (descent and roll-up speed) independent of n.
func ScaledSheet(n int) SheetConfig {
	return SheetConfig{N: n, Radius: 1, Sigma: 18.53 * math.Sqrt(4*math.Pi/10000)}
}
