package nbody

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

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
