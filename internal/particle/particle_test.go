package particle

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	s := RandomVortexBlob(37, 0.1, 1)
	orig := s.Clone()
	buf := s.PackNew()
	if len(buf) != 6*37 {
		t.Fatalf("state length %d", len(buf))
	}
	// scramble and restore
	for i := range s.Particles {
		s.Particles[i].Pos = vec.Zero3
		s.Particles[i].Alpha = vec.Zero3
	}
	s.Unpack(buf)
	for i := range s.Particles {
		if s.Particles[i].Pos != orig.Particles[i].Pos ||
			s.Particles[i].Alpha != orig.Particles[i].Alpha {
			t.Fatalf("particle %d not restored", i)
		}
		if s.Particles[i].Vol != orig.Particles[i].Vol {
			t.Fatalf("Vol must survive pack/unpack")
		}
	}
}

func TestPackPanicsOnWrongLength(t *testing.T) {
	s := RandomVortexBlob(3, 0.1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Pack(make([]float64, 5))
}

func TestUnpackPanicsOnWrongLength(t *testing.T) {
	s := RandomVortexBlob(3, 0.1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Unpack(make([]float64, 17))
}

func TestCloneIsDeep(t *testing.T) {
	s := RandomVortexBlob(5, 0.1, 2)
	c := s.Clone()
	c.Particles[0].Pos = vec.V3(99, 99, 99)
	if s.Particles[0].Pos == c.Particles[0].Pos {
		t.Fatal("Clone shares backing storage")
	}
}

func TestBounds(t *testing.T) {
	s := &System{Particles: []Particle{
		{Pos: vec.V3(1, -2, 3)},
		{Pos: vec.V3(-1, 5, 0)},
		{Pos: vec.V3(0, 0, -7)},
	}}
	lo, hi := s.Bounds()
	if lo != vec.V3(-1, -2, -7) || hi != vec.V3(1, 5, 3) {
		t.Fatalf("Bounds = %v %v", lo, hi)
	}
	empty := &System{}
	lo, hi = empty.Bounds()
	if lo != vec.Zero3 || hi != vec.Zero3 {
		t.Fatal("empty Bounds must be zero")
	}
}

func TestSphericalVortexSheetGeometry(t *testing.T) {
	cfg := DefaultSheet(500)
	s := SphericalVortexSheet(cfg)
	if s.N() != 500 {
		t.Fatalf("N = %d", s.N())
	}
	h := math.Sqrt(4 * math.Pi / 500)
	if math.Abs(s.Sigma-18.53*h) > 1e-12 {
		t.Fatalf("σ = %v, want %v", s.Sigma, 18.53*h)
	}
	for i, p := range s.Particles {
		if r := p.Pos.Norm(); math.Abs(r-1) > 1e-12 {
			t.Fatalf("particle %d at radius %v, want 1", i, r)
		}
		// α must be tangential: α ⟂ radial direction and α ⟂ e_z-component
		// only through e_φ (e_φ·e_r = 0, e_φ·e_z = 0 ⇒ α_z = 0).
		if math.Abs(p.Alpha.Z) > 1e-14 {
			t.Fatalf("particle %d has α_z = %v", i, p.Alpha.Z)
		}
		if math.Abs(p.Alpha.Dot(p.Pos)) > 1e-13*p.Alpha.Norm() {
			t.Fatalf("particle %d: α not tangential", i)
		}
		if p.Vol <= 0 {
			t.Fatalf("particle %d: vol = %v", i, p.Vol)
		}
	}
}

func TestSphericalVortexSheetStrength(t *testing.T) {
	// |ω| = (3/8π) sin θ, so |α| = (3/8π) sinθ h²; check a particle near
	// the equator has |α| ≈ (3/8π)·h² and near the poles ≈ 0.
	s := SphericalVortexSheet(DefaultSheet(10000))
	h2 := 4 * math.Pi / 10000
	maxA := 0.0
	for _, p := range s.Particles {
		maxA = math.Max(maxA, p.Alpha.Norm())
		sinT := math.Sqrt(p.Pos.X*p.Pos.X + p.Pos.Y*p.Pos.Y)
		want := 3 / (8 * math.Pi) * sinT * h2
		if math.Abs(p.Alpha.Norm()-want) > 1e-12 {
			t.Fatalf("strength %v, want %v", p.Alpha.Norm(), want)
		}
	}
	if math.Abs(maxA-3/(8*math.Pi)*h2) > 1e-4*h2 {
		t.Fatalf("max strength %v, want ≈ %v", maxA, 3/(8*math.Pi)*h2)
	}
}

func TestSphericalVortexSheetTotalCirculationVanishes(t *testing.T) {
	// The azimuthal sheet has zero net circulation vector by symmetry.
	s := SphericalVortexSheet(DefaultSheet(4000))
	d := Diagnose(s)
	if d.TotalCirculation.Norm() > 1e-3*d.MaxAlpha*float64(s.N()) {
		t.Fatalf("total circulation %v not ≈ 0", d.TotalCirculation)
	}
}

func TestSphericalVortexSheetLinearImpulseAlongZ(t *testing.T) {
	// I = ½ Σ x×α points along −z for this sheet (downward-moving ring).
	s := SphericalVortexSheet(DefaultSheet(4000))
	d := Diagnose(s)
	if math.Abs(d.LinearImpulse.X) > 1e-4 || math.Abs(d.LinearImpulse.Y) > 1e-4 {
		t.Fatalf("impulse has transverse component: %v", d.LinearImpulse)
	}
	// Analytically |I| = ½|∫x×ω dV| = 0.5 for ω = (3/8π) sinθ e_φ on
	// the unit sphere; the orientation is chosen so the sheet descends.
	if math.Abs(d.LinearImpulse.Z+0.5) > 1e-4 {
		t.Fatalf("impulse z = %v, want -0.5", d.LinearImpulse.Z)
	}
}

func TestSheetPanics(t *testing.T) {
	for _, cfg := range []SheetConfig{
		{N: 0, Radius: 1, SigmaOverH: 1},
		{N: 10, Radius: 0, SigmaOverH: 1},
		{N: 10, Radius: 1, SigmaOverH: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", cfg)
				}
			}()
			SphericalVortexSheet(cfg)
		}()
	}
}

func TestHomogeneousCoulombNeutral(t *testing.T) {
	s := HomogeneousCoulomb(1000, 42)
	q := 0.0
	for _, p := range s.Particles {
		q += p.Charge
		if p.Pos.X < 0 || p.Pos.X > 1 || p.Pos.Y < 0 || p.Pos.Y > 1 || p.Pos.Z < 0 || p.Pos.Z > 1 {
			t.Fatalf("particle outside unit cube: %v", p.Pos)
		}
	}
	if q != 0 {
		t.Fatalf("net charge %v, want 0", q)
	}
}

func TestHomogeneousCoulombDeterministic(t *testing.T) {
	a := HomogeneousCoulomb(100, 7)
	b := HomogeneousCoulomb(100, 7)
	for i := range a.Particles {
		if a.Particles[i].Pos != b.Particles[i].Pos {
			t.Fatal("same seed must give same cloud")
		}
	}
	c := HomogeneousCoulomb(100, 8)
	if a.Particles[0].Pos == c.Particles[0].Pos {
		t.Fatal("different seeds should differ")
	}
}

func TestDiagnoseEmpty(t *testing.T) {
	d := Diagnose(&System{})
	if d.ZMin != 0 || d.ZMax != 0 || d.MaxAlpha != 0 {
		t.Fatalf("empty diagnostics: %+v", d)
	}
}

func TestRelMaxPositionError(t *testing.T) {
	a := RandomVortexBlob(10, 0.1, 3)
	b := a.Clone()
	if e := RelMaxPositionError(a, b); e != 0 {
		t.Fatalf("identical systems: error %v", e)
	}
	b.Particles[4].Pos = b.Particles[4].Pos.Add(vec.V3(0.5, 0, 0))
	e := RelMaxPositionError(a, b)
	if e <= 0 {
		t.Fatal("perturbed system must have positive error")
	}
}

func TestRelMaxPositionErrorPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RelMaxPositionError(RandomVortexBlob(3, 1, 1), RandomVortexBlob(4, 1, 1))
}

func TestMaxSpeed(t *testing.T) {
	v := []vec.Vec3{vec.V3(1, 0, 0), vec.V3(0, -3, 4), vec.V3(0, 0, 2)}
	if got := MaxSpeed(v); got != 5 {
		t.Fatalf("MaxSpeed = %v", got)
	}
	if got := MaxSpeed(nil); got != 0 {
		t.Fatalf("MaxSpeed(nil) = %v", got)
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(x, y, z, ax, ay, az float64) bool {
		s := &System{Particles: []Particle{{
			Pos: vec.V3(x, y, z), Alpha: vec.V3(ax, ay, az),
		}}}
		buf := s.PackNew()
		s.Particles[0] = Particle{}
		s.Unpack(buf)
		p := s.Particles[0]
		eq := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		return eq(p.Pos.X, x) && eq(p.Pos.Y, y) && eq(p.Pos.Z, z) &&
			eq(p.Alpha.X, ax) && eq(p.Alpha.Y, ay) && eq(p.Alpha.Z, az)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
