package direct

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// TestEvalVelocityIsVelocities holds Eval, which sums four targets per
// tile call, to Velocities, which sums one target per range: the
// velocity bits must agree for every target, including the spare
// lanes of a chunk whose length is not a multiple of the tile width.
func TestEvalVelocityIsVelocities(t *testing.T) {
	for _, n := range []int{1, 3, 5, 13, 41} {
		for _, workers := range []int{1, 3} {
			sys := particle.RandomVortexBlob(n, 0.3, int64(n))
			s := New(kernel.Algebraic6(), kernel.Transpose, workers)
			vel := make([]vec.Vec3, n)
			str := make([]vec.Vec3, n)
			ref := make([]vec.Vec3, n)
			s.Eval(sys, vel, str)
			s.Velocities(sys, ref)
			for i := range vel {
				for _, c := range [3][2]float64{{vel[i].X, ref[i].X}, {vel[i].Y, ref[i].Y}, {vel[i].Z, ref[i].Z}} {
					if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
						t.Fatalf("n=%d workers=%d: target %d: Eval velocity %v, Velocities %v", n, workers, i, vel[i], ref[i])
					}
				}
			}
		}
	}
}
