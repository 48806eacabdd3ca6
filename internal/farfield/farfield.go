// Package farfield implements the frequency-split coarse propagator
// sketched in the paper's outlook (Section V): "coarse problems could
// update the contribution from well separated particle clusters less
// frequently than nearby clusters. The spatial decomposition implicit
// in the tree structure provides a natural hierarchy of spatial
// scales."
//
// The Solver wraps a Barnes-Hut traversal and splits every target's
// field into a near part (direct leaf interactions, recomputed on every
// evaluation) and a far part (MAC-accepted cluster interactions,
// refreshed only every RefreshEvery-th evaluation and reused in
// between). Because the far field varies slowly, the stale-far
// approximation is mild — and the refreshed evaluations amortize most
// of the traversal cost, making this an even cheaper coarse level for
// PFASST than plain θ-coarsening.
package farfield

import (
	"fmt"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Solver is a frequency-split evaluator. It is stateful (it caches the
// far field between evaluations) and therefore must be used by a single
// integration sequence at a time; the particle count must not change
// between refreshes.
type Solver struct {
	// Sm, Scheme, Theta, LeafCap, Dipole mirror tree.Solver.
	Sm      kernel.Smoothing
	Scheme  kernel.Scheme
	Theta   float64
	LeafCap int
	Dipole  bool
	// RefreshEvery is the far-field refresh period in evaluations
	// (1 = refresh always ≡ plain tree solver).
	RefreshEvery int

	counter int
	farU    []vec.Vec3
	farGrad []vec.Mat3

	evals        atomic.Int64
	interactions atomic.Int64
}

// New returns a frequency-split solver with the given MAC parameter
// and refresh period.
func New(sm kernel.Smoothing, scheme kernel.Scheme, theta float64, refreshEvery int) *Solver {
	if refreshEvery < 1 {
		refreshEvery = 1
	}
	return &Solver{
		Sm: sm, Scheme: scheme, Theta: theta,
		LeafCap: 8, Dipole: true, RefreshEvery: refreshEvery,
	}
}

// Name implements field.Evaluator.
func (s *Solver) Name() string {
	return fmt.Sprintf("farfield/%s/theta=%.2f/every=%d", s.Sm.Name(), s.Theta, s.RefreshEvery)
}

// Stats implements field.Evaluator.
func (s *Solver) Stats() field.Stats {
	return field.Stats{Evaluations: s.evals.Load(), Interactions: s.interactions.Load()}
}

// Reset clears the cached far field (e.g. after remeshing changes the
// particle count).
func (s *Solver) Reset() {
	s.counter = 0
	s.farU = nil
	s.farGrad = nil
}

// Eval implements field.Evaluator.
func (s *Solver) Eval(sys *particle.System, vel, stretch []vec.Vec3) {
	n := sys.N()
	if len(vel) != n || len(stretch) != n {
		panic("farfield: Eval output slices must have length N")
	}
	s.evals.Add(1)
	if s.farU == nil || len(s.farU) != n {
		s.Reset()
		s.farU = make([]vec.Vec3, n)
		s.farGrad = make([]vec.Mat3, n)
	}
	refresh := s.counter%s.RefreshEvery == 0
	s.counter++

	t := tree.Build(sys, tree.BuildConfig{LeafCap: s.LeafCap, Discipline: tree.Vortex, Layout: particle.LayoutSoA})
	vb := kernel.NewVortexBatch(kernel.Pairwise{Sm: s.Sm, Sigma: sys.Sigma})
	var inter int64
	for q := 0; q < n; q++ {
		p := &sys.Particles[q]
		near, far := t.VortexAtSplit(t.Root, p.Pos, s.Theta, q, &vb, s.Dipole, refresh)
		inter += near.Interactions
		if refresh {
			s.farU[q] = far.U
			s.farGrad[q] = far.Grad
			inter += far.Interactions
		}
		vel[q] = near.U.Add(s.farU[q])
		grad := near.Grad.Add(s.farGrad[q])
		stretch[q] = s.Scheme.Stretch(grad, p.Alpha)
	}
	s.interactions.Add(inter)
}

var _ field.Evaluator = (*Solver)(nil)
