package nbody

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// TestLayoutLane integrates a serial tree-SDC simulation once on a
// solver that gathered its lanes at build (the default) and once on one
// that gathers each leaf as the near leg meets it: the final states
// must be identical, whichever way the one kernel found its sources.
func TestLayoutLane(t *testing.T) {
	simRun := func(layout particle.Layout) *System {
		sys := ScaledVortexSheet(96)
		s := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3)
		s.Layout = layout
		sim := NewSimulation(sys)
		sim.Solver = s
		if err := sim.Run(0, 0.5, 2); err != nil {
			t.Fatalf("layout %v: %v", layout, err)
		}
		return sys
	}
	got, ref := simRun(particle.LayoutSoA), simRun(particle.LayoutAoS)
	for i := range ref.Particles {
		if got.Particles[i].Pos != ref.Particles[i].Pos ||
			got.Particles[i].Alpha != ref.Particles[i].Alpha {
			t.Fatalf("serial simulation state of particle %d differs between layouts", i)
		}
	}
}

// BenchmarkLayoutEvalSoA is the steady-state allocation benchmark
// behind the CI alloc smoke: a single-worker tree Eval on the clustered
// sheet, arena warmed, allocations reported per op. It must report
// 0 allocs/op.
func BenchmarkLayoutEvalSoA(b *testing.B) {
	sys := particle.ClusteredVortexSheet(2000)
	s := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3)
	s.Workers = 1
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	s.Eval(sys, vel, str) // warm the arena and scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(sys, vel, str)
	}
}
