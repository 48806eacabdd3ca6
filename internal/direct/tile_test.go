package direct

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// rangeVelocities is the velocity oracle of Eval: one AccumVelRange
// per target over every particle in index order, skipping the target.
func rangeVelocities(sys *particle.System, sm kernel.Smoothing) []vec.Vec3 {
	var l particle.SoA
	l.GatherVortex(sys, nil)
	b := kernel.NewVortexBatch(kernel.Pairwise{Sm: sm, Sigma: sys.Sigma})
	vel := make([]vec.Vec3, sys.N())
	for q := range vel {
		var acc kernel.VortexAcc
		b.AccumVelRange(&acc, l.X[q], l.Y[q], l.Z[q], l.X, l.Y, l.Z, l.AX, l.AY, l.AZ, q)
		vel[q] = vec.V3(acc.UX, acc.UY, acc.UZ)
	}
	return vel
}

// TestEvalVelocityIsVelocities holds Eval, which sums eight targets per
// kernel call, to rangeVelocities, which sums one target per range:
// the velocity bits must agree for every target, including the spare
// lanes of a chunk whose length is not a multiple of the tile width.
func TestEvalVelocityIsVelocities(t *testing.T) {
	for _, n := range []int{1, 3, 5, 13, 41} {
		for _, workers := range []int{1, 3} {
			sys := particle.RandomVortexBlob(n, 0.3, int64(n))
			s := New(kernel.Algebraic6(), kernel.Transpose, workers)
			vel := make([]vec.Vec3, n)
			str := make([]vec.Vec3, n)
			s.Eval(sys, vel, str)
			ref := rangeVelocities(sys, kernel.Algebraic6())
			for i := range vel {
				for _, c := range [3][2]float64{{vel[i].X, ref[i].X}, {vel[i].Y, ref[i].Y}, {vel[i].Z, ref[i].Z}} {
					if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
						t.Fatalf("n=%d workers=%d: target %d: Eval velocity %v, ranges %v", n, workers, i, vel[i], ref[i])
					}
				}
			}
		}
	}
}
