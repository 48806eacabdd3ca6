package tree

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// benchEval times one full Eval (build + traversal) of the uniform
// spherical vortex sheet of 2,000 particles under the given traversal
// mode; the CI smoke lane runs
// it with -benchtime 1x to keep both evaluators compiling and working.
func benchEval(b *testing.B, mode TraversalMode) {
	sys := particle.SphericalVortexSheet(particle.DefaultSheet(2000))
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.45)
	s.Traversal = mode
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(sys, vel, str)
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.Interactions)/float64(st.Evaluations), "inter/eval")
	b.ReportMetric(float64(s.LastSched.Steals), "steals")
}

func BenchmarkEvalList(b *testing.B)      { benchEval(b, TraversalList) }
func BenchmarkEvalRecursive(b *testing.B) { benchEval(b, TraversalRecursive) }

// BenchmarkEvalCoulomb times one full Coulomb evaluation (build +
// traversal) of a uniform cloud of 2,000 alternating unit charges at
// θ = 0.45; the CI smoke lane runs it with -benchtime 1x.
func BenchmarkEvalCoulomb(b *testing.B) {
	sys := particle.HomogeneousCoulomb(2000, 1)
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.45)
	pot := make([]float64, sys.N())
	f := make([]vec.Vec3, sys.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Coulomb(sys, 0.01, pot, f)
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.Interactions)/float64(st.Evaluations), "inter/eval")
	b.ReportMetric(float64(s.LastSched.Steals), "steals")
}
