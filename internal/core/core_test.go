package core

import (
	"math"
	"testing"

	"repro/internal/direct"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/sdc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// serialReference advances the full system with time-serial SDC and a
// direct O(N²) evaluator — the ground truth for the coupled runs.
func serialReference(full *particle.System, t0, t1 float64, nsteps, sweeps int) *particle.System {
	sys := NewVortexSystem(full, direct.New(kernel.Algebraic6(), kernel.Transpose, 0))
	u := full.PackNew()
	sdc.NewIntegrator(sys, 3, sweeps).Integrate(t0, t1, nsteps, u)
	out := full.Clone()
	out.Unpack(u)
	return out
}

func TestVortexSystemRHSMatchesEvaluator(t *testing.T) {
	full := particle.RandomVortexBlob(30, 0.3, 61)
	ev := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
	sys := NewVortexSystem(full, ev)
	if sys.Dim() != 180 {
		t.Fatalf("dim %d", sys.Dim())
	}
	u := full.PackNew()
	f := make([]float64, len(u))
	sys.F(0, u, f)
	if got := ev.Stats().Evaluations; got != 1 {
		t.Fatalf("F ran the wrapped evaluator %d times, want 1", got)
	}
	// The first particle's RHS must equal the pairwise sums computed
	// directly from the kernel.
	b := kernel.NewVortexBatch(kernel.Pairwise{Sm: kernel.Algebraic6(), Sigma: full.Sigma})
	var acc kernel.VortexAcc
	for p := 1; p < full.N(); p++ {
		r := full.Particles[0].Pos.Sub(full.Particles[p].Pos)
		a := full.Particles[p].Alpha
		b.AccumGrad(&acc, r.X, r.Y, r.Z, a.X, a.Y, a.Z)
	}
	velWant := vec.V3(acc.UX, acc.UY, acc.UZ)
	g := acc.G
	grad := vec.Mat3{{g[0], g[1], g[2]}, {g[3], g[4], g[5]}, {g[6], g[7], g[8]}}
	strWant := kernel.StretchTranspose(grad, full.Particles[0].Alpha)
	if math.Abs(f[0]-velWant.X) > 1e-13 || math.Abs(f[4]-strWant.Y) > 1e-13 {
		t.Fatalf("RHS mismatch: f[0]=%v want %v; f[4]=%v want %v", f[0], velWant.X, f[4], strWant.Y)
	}
}

func TestSpaceTimeMatchesSerialReference(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(96))
	const pt, ps = 2, 2
	t1 := 2.0
	nsteps := 2

	// Ground truth: serial SDC on the collocation solution with a
	// θ=0 tree (≡ direct) evaluator.
	want := serialReference(full, 0, t1, nsteps, 12)

	cfg := Default(pt, ps)
	cfg.ThetaFine = 0 // fine level exact
	cfg.ThetaCoarse = 0.6
	cfg.Iterations = 8 // converge deep
	var got *particle.System
	err := mpi.Run(pt*ps, func(w *mpi.Comm) error {
		res, err := RunSpaceTime(w, cfg, full, 0, t1, nsteps)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			got = res.Local
		}
		w.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 holds spatial block 0.
	n0 := got.N()
	maxErr := 0.0
	for i := 0; i < n0; i++ {
		maxErr = math.Max(maxErr, got.Particles[i].Pos.Sub(want.Particles[i].Pos).Norm())
	}
	if maxErr > 1e-7 {
		t.Fatalf("space-time run differs from serial reference by %g", maxErr)
	}
}

func TestSpaceTimeThetaCoarseningConverges(t *testing.T) {
	// The production configuration (θ 0.3/0.6) must converge: small
	// iteration-to-iteration differences on the last slice.
	full := particle.SphericalVortexSheet(particle.DefaultSheet(128))
	const pt, ps = 2, 2
	cfg := Default(pt, ps)
	cfg.Iterations = 3
	var diff float64
	err := mpi.Run(pt*ps, func(w *mpi.Comm) error {
		res, err := RunSpaceTime(w, cfg, full, 0, 1, 2)
		if err != nil {
			return err
		}
		if res.TimeSlice == pt-1 && res.SpatialIndex == 0 {
			diff = res.PFASST.IterDiffs[0]
		}
		w.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff <= 0 || diff > 1e-3 {
		t.Fatalf("last-slice iteration diff %g out of expected range", diff)
	}
}

func TestSpaceTimeRejectsWrongWorldSize(t *testing.T) {
	full := particle.RandomVortexBlob(16, 0.2, 67)
	cfg := Default(2, 2)
	err := mpi.Run(3, func(w *mpi.Comm) error {
		_, err := RunSpaceTime(w, cfg, full, 0, 1, 2)
		if err == nil {
			t.Error("expected world-size error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSpaceSerialSDCMatchesSerial(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(64))
	want := serialReference(full, 0, 1, 2, 4)
	const ps = 2
	results := make([]*particle.System, ps)
	cfg := Default(1, ps)
	cfg.ThetaFine = 0
	err := mpi.Run(ps, func(w *mpi.Comm) error {
		local := blockOf(full, w.Rank(), ps)
		if _, err := RunSpaceSerialSDC(w, cfg, local, 0, 1, 2, 3, 4); err != nil {
			return err
		}
		results[w.Rank()] = local
		w.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	for r := 0; r < ps; r++ {
		for i := range results[r].Particles {
			d := results[r].Particles[i].Pos.Sub(want.Particles[idx].Pos).Norm()
			if d > 1e-11 {
				t.Fatalf("particle %d differs by %g", idx, d)
			}
			idx++
		}
	}
	if idx != full.N() {
		t.Fatalf("covered %d of %d particles", idx, full.N())
	}
}

func TestRunSpaceSerialSDCValidation(t *testing.T) {
	full := particle.RandomVortexBlob(8, 0.2, 71)
	cfg := Default(1, 1)
	err := mpi.Run(1, func(w *mpi.Comm) error {
		if _, err := RunSpaceSerialSDC(w, cfg, full, 0, 1, 0, 3, 4); err == nil {
			t.Error("expected error for 0 steps")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func blockOf(full *particle.System, rank, size int) *particle.System {
	n := full.N()
	lo, hi := n*rank/size, n*(rank+1)/size
	out := &particle.System{Sigma: full.Sigma, Particles: make([]particle.Particle, hi-lo)}
	copy(out.Particles, full.Particles[lo:hi])
	return out
}

func TestVortexSystemWithTreeEvaluator(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(200))
	treeSys := NewVortexSystem(full, tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3))
	directSys := NewVortexSystem(full, direct.New(kernel.Algebraic6(), kernel.Transpose, 0))
	u := full.PackNew()
	fT := make([]float64, len(u))
	fD := make([]float64, len(u))
	treeSys.F(0, u, fT)
	directSys.F(0, u, fD)
	maxRel := 0.0
	for i := range fT {
		maxRel = math.Max(maxRel, math.Abs(fT[i]-fD[i]))
	}
	scale := 0.0
	for i := range fD {
		scale = math.Max(scale, math.Abs(fD[i]))
	}
	if maxRel/scale > 5e-3 {
		t.Fatalf("tree RHS deviates from direct by %g", maxRel/scale)
	}
}

func TestSpaceTimeWithThreadsAndTolerance(t *testing.T) {
	// Hybrid traversal + adaptive iteration together: the coupled run
	// must still converge to the serial reference.
	full := particle.SphericalVortexSheet(particle.ScaledSheet(96))
	want := serialReference(full, 0, 1, 2, 10)

	cfg := Default(2, 2)
	cfg.ThetaFine = 0
	cfg.Iterations = 10
	cfg.Tol = 1e-9
	cfg.Threads = 3
	var got *particle.System
	var itersRun int
	err := mpi.Run(4, func(w *mpi.Comm) error {
		res, err := RunSpaceTime(w, cfg, full, 0, 1, 2)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			got = res.Local
			itersRun = res.PFASST.IterationsRun[0]
		}
		w.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if itersRun < 1 || itersRun > 10 {
		t.Fatalf("iterations run %d", itersRun)
	}
	maxErr := 0.0
	for i := range got.Particles {
		maxErr = math.Max(maxErr, got.Particles[i].Pos.Sub(want.Particles[i].Pos).Norm())
	}
	if maxErr > 1e-6 {
		t.Fatalf("threads+tol run deviates by %g", maxErr)
	}
}

func TestSpaceTimeLargerGrid(t *testing.T) {
	// A 4×4 = 16-rank space-time grid (PT=4, PS=4) over two blocks:
	// completes, converges, and matches the serial reference within
	// PFASST-iteration accuracy.
	if testing.Short() {
		t.Skip("large grid test")
	}
	full := particle.SphericalVortexSheet(particle.ScaledSheet(256))
	want := serialReference(full, 0, 4, 8, 6)
	cfg := Default(4, 4)
	cfg.ThetaFine = 0
	cfg.Iterations = 5
	results := make([]*particle.System, 4)
	err := mpi.Run(16, func(w *mpi.Comm) error {
		res, err := RunSpaceTime(w, cfg, full, 0, 4, 8)
		if err != nil {
			return err
		}
		if res.TimeSlice == 3 {
			results[res.SpatialIndex] = res.Local
		}
		w.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, maxErr := 0, 0.0
	for r := 0; r < 4; r++ {
		for i := range results[r].Particles {
			maxErr = math.Max(maxErr,
				results[r].Particles[i].Pos.Sub(want.Particles[idx].Pos).Norm())
			idx++
		}
	}
	if idx != full.N() {
		t.Fatalf("covered %d of %d", idx, full.N())
	}
	if maxErr > 1e-5 {
		t.Fatalf("16-rank space-time run deviates by %g", maxErr)
	}
}
