package nbody

import (
	"math"
	"testing"
)

func TestKernelLookup(t *testing.T) {
	for _, name := range []string{"algebraic2", "algebraic6"} {
		k, err := Kernel(name)
		if err != nil || k.Name() != name {
			t.Fatalf("Kernel(%q): %v %v", name, k, err)
		}
	}
	if _, err := Kernel("bogus"); err == nil {
		t.Fatal("expected error for unknown kernel")
	}
}

func TestSystemBuilders(t *testing.T) {
	if s := VortexSheet(100); s.N() != 100 || s.Sigma <= 0 {
		t.Fatal("VortexSheet")
	}
	if s := ScaledVortexSheet(100); math.Abs(s.Sigma-0.6565) > 0.01 {
		t.Fatalf("ScaledVortexSheet sigma %v", s.Sigma)
	}
	if s := CoulombCloud(64, 1); s.N() != 64 {
		t.Fatal("CoulombCloud")
	}
	if s := RandomBlob(10, 0.5, 1); s.N() != 10 || s.Sigma != 0.5 {
		t.Fatal("RandomBlob")
	}
}

func TestSimulationRK2MatchesSDCClosely(t *testing.T) {
	// Both integrators advance the same sheet; over a short horizon
	// their results must agree to integration accuracy.
	a := ScaledVortexSheet(200)
	b := a.Clone()

	simA := NewSimulation(a)
	simA.Integrator = RK(2)
	simA.Solver = NewDirectSolver()
	if err := simA.Run(0, 1, 4); err != nil {
		t.Fatal(err)
	}

	simB := NewSimulation(b)
	simB.Integrator = SDC(3, 4)
	simB.Solver = NewDirectSolver()
	if err := simB.Run(0, 1, 4); err != nil {
		t.Fatal(err)
	}

	maxDiff := 0.0
	for i := range a.Particles {
		maxDiff = math.Max(maxDiff, a.Particles[i].Pos.Sub(b.Particles[i].Pos).Norm())
	}
	if maxDiff == 0 {
		t.Fatal("integrators produced identical states — suspicious")
	}
	if maxDiff > 1e-4 {
		t.Fatalf("RK2 and SDC(4) diverge by %g", maxDiff)
	}
}

func TestSimulationOnStepCallback(t *testing.T) {
	sys := ScaledVortexSheet(50)
	sim := NewSimulation(sys)
	sim.Solver = NewTreeSolver(0.5)
	var times []float64
	sim.OnStep = func(tt float64, s *System) {
		times = append(times, tt)
	}
	if err := sim.Run(0, 2, 4); err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 || times[0] != 0.5 || times[3] != 2 {
		t.Fatalf("callback times %v", times)
	}
}

func TestSimulationValidation(t *testing.T) {
	sim := NewSimulation(ScaledVortexSheet(10))
	if err := sim.Run(0, 1, 0); err == nil {
		t.Fatal("expected error for 0 steps")
	}
	sim.Integrator = RK(9)
	if err := sim.Run(0, 1, 1); err == nil {
		t.Fatal("expected error for RK order 9")
	}
	sim.Integrator = Integrator{kind: "nope"}
	if err := sim.Run(0, 1, 1); err == nil {
		t.Fatal("expected error for unknown integrator")
	}
}

func TestRunSpaceTimeFacade(t *testing.T) {
	sys := ScaledVortexSheet(128)
	cfg := DefaultSpaceTime(2, 2)
	cfg.Iterations = 4
	got, stats, err := RunSpaceTime(cfg, sys, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != sys.N() {
		t.Fatalf("gathered %d particles, want %d", got.N(), sys.N())
	}
	if stats.LastSliceResidual <= 0 {
		t.Fatalf("missing residual: %+v", stats)
	}
	if stats.FineEvals == 0 || stats.CoarseEvals == 0 {
		t.Fatalf("missing eval counts: %+v", stats)
	}

	// Must agree with the serial reference (direct SDC).
	ref := sys.Clone()
	sim := NewSimulation(ref)
	sim.Solver = NewDirectSolver()
	sim.Integrator = SDC(3, 8)
	if err := sim.Run(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	maxDiff := 0.0
	for i := range got.Particles {
		maxDiff = math.Max(maxDiff, got.Particles[i].Pos.Sub(ref.Particles[i].Pos).Norm())
	}
	if maxDiff > 1e-3 {
		t.Fatalf("space-time facade deviates from serial reference by %g", maxDiff)
	}
}

func TestRunSpaceTimeModeledClock(t *testing.T) {
	sys := ScaledVortexSheet(96)
	cfg := DefaultSpaceTime(2, 2)
	cfg.Modeled = true
	_, stats, err := RunSpaceTime(cfg, sys, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModeledSeconds <= 0 {
		t.Fatalf("modeled time missing: %+v", stats)
	}
}

func TestRunSpaceParallel(t *testing.T) {
	sys := ScaledVortexSheet(100)
	got, vt, err := RunSpaceParallel(2, 0, 4, true, sys, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vt <= 0 {
		t.Fatal("modeled time missing")
	}
	ref := sys.Clone()
	sim := NewSimulation(ref)
	sim.Solver = NewDirectSolver()
	sim.Integrator = SDC(3, 4)
	if err := sim.Run(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	maxDiff := 0.0
	for i := range got.Particles {
		maxDiff = math.Max(maxDiff, got.Particles[i].Pos.Sub(ref.Particles[i].Pos).Norm())
	}
	if maxDiff > 1e-10 {
		t.Fatalf("space-parallel (θ=0) deviates from serial direct by %g", maxDiff)
	}
}

func TestRunSpaceTimeValidation(t *testing.T) {
	sys := ScaledVortexSheet(16)
	if _, _, err := RunSpaceTime(SpaceTimeConfig{PT: 0, PS: 1}, sys, 0, 1, 1); err == nil {
		t.Fatal("expected PT validation error")
	}
	if _, _, err := RunSpaceParallel(0, 0.3, 4, false, sys, 0, 1, 1); err == nil {
		t.Fatal("expected PS validation error")
	}
}

func TestDiagnoseFacade(t *testing.T) {
	d := Diagnose(ScaledVortexSheet(500))
	if math.Abs(d.LinearImpulse.Z+0.5) > 1e-3 {
		t.Fatalf("impulse %v", d.LinearImpulse)
	}
}

func TestCheckpointFacade(t *testing.T) {
	sys := ScaledVortexSheet(50)
	path := t.TempDir() + "/s.nbck"
	if err := SaveCheckpoint(path, sys); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 50 || got.Sigma != sys.Sigma {
		t.Fatal("round trip failed")
	}
}

func TestRemeshFacade(t *testing.T) {
	sys := ScaledVortexSheet(300)
	out, st := Remesh(sys, RemeshConfig{H: 0.15})
	if out.N() == 0 || st.Before != 300 {
		t.Fatalf("remesh stats %+v", st)
	}
	dBefore := Diagnose(sys).LinearImpulse
	dAfter := Diagnose(out).LinearImpulse
	if dAfter.Sub(dBefore).Norm() > 1e-12 {
		t.Fatal("remesh broke impulse conservation")
	}
}

func TestFarFieldSolverFacade(t *testing.T) {
	sys := ScaledVortexSheet(200)
	sim := NewSimulation(sys)
	sim.Solver = NewFarFieldSolver(0.4, 3)
	if err := sim.Run(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	d := Diagnose(sys)
	if d.Centroid.Z >= 0 {
		t.Fatalf("sheet did not descend under far-field solver: %v", d.Centroid.Z)
	}
}

func TestDiagnoseFlowFacade(t *testing.T) {
	sys := ScaledVortexSheet(150)
	vel := make([]Vec3, sys.N())
	str := make([]Vec3, sys.N())
	NewDirectSolver().Eval(sys, vel, str)
	fd := DiagnoseFlow(sys, vel)
	if fd.KineticEnergy <= 0 {
		t.Fatalf("kinetic energy %v should be positive", fd.KineticEnergy)
	}
	if math.Abs(fd.Helicity) > 1e-3 {
		t.Fatalf("sheet helicity %v should vanish by symmetry", fd.Helicity)
	}
	if fd.Enstrophy <= 0 {
		t.Fatal("enstrophy must be positive")
	}
}

func TestGravitySimulationFacade(t *testing.T) {
	// Equal-mass binary on a circular orbit returns home after one
	// period (direct gravity, θ=0).
	sys := &System{Sigma: 0.01, Particles: []Particle{
		{Pos: V3(-0.5, 0, 0), Charge: 1, Vol: 1},
		{Pos: V3(0.5, 0, 0), Charge: 1, Vol: 1},
	}}
	v := math.Sqrt(0.5)
	vel := []Vec3{V3(0, -v, 0), V3(0, v, 0)}
	start := sys.Clone()
	g := NewGravitySimulation(sys, vel)
	g.Theta, g.Eps = 0, 0
	period := 2 * math.Pi * 0.5 / v
	steps := 0
	g.OnStep = func(tt float64, s *System, vv []Vec3) { steps++ }
	if err := g.Run(0, period, 64); err != nil {
		t.Fatal(err)
	}
	if steps != 64 {
		t.Fatalf("OnStep ran %d times", steps)
	}
	for i := range sys.Particles {
		if d := sys.Particles[i].Pos.Sub(start.Particles[i].Pos).Norm(); d > 1e-4 {
			t.Fatalf("body %d displaced %g after a period", i, d)
		}
	}
	// Validation errors.
	if err := g.Run(0, 1, 0); err == nil {
		t.Fatal("expected nsteps error")
	}
	g.Vel = vel[:1]
	if err := g.Run(0, 1, 1); err == nil {
		t.Fatal("expected velocity-length error")
	}
}
