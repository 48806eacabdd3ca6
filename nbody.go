// Package nbody is a massively space-time parallel N-body solver: a Go
// reproduction of Speck, Ruprecht, Krause, Emmett, Minion, Winkel,
// Gibbon, "A massively space-time parallel N-body solver" (SC 2012).
//
// The library couples a Barnes-Hut tree code in the style of PEPC
// (Morton-curve domain decomposition, branch-node exchange, multipole
// acceptance criterion s/d ≤ θ) with the parallel-in-time integrator
// PFASST (parareal iterations intertwined with spectral deferred
// correction sweeps and FAS corrections). Spatial coarsening for the
// PFASST hierarchy is obtained by raising θ on the coarse level.
//
// This root package is the high-level façade: build a particle system,
// pick a spatial solver and a time integrator, and run — serially,
// space-parallel, or space-time parallel. Parallel runs execute on an
// in-process message-passing runtime (one goroutine per rank) with
// optional virtual clocks that model a Blue Gene/P-like machine; see
// DESIGN.md for how this substitutes for the paper's 262,144-core
// installation.
package nbody

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/field"
	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/rk"
	"repro/internal/sdc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Re-exported foundation types. Construct systems through the helpers
// below (or fill the structs directly).
type (
	// Particle is a regularized vortex particle (or charged particle
	// in the Coulomb discipline).
	Particle = particle.Particle
	// System is a particle ensemble with its smoothing core size σ.
	System = particle.System
	// Vec3 is a vector in R³.
	Vec3 = vec.Vec3
	// Diagnostics summarizes conserved quantities and sheet monitors.
	Diagnostics = particle.Diagnostics
	// Smoothing is a regularization kernel (ζ, q).
	Smoothing = kernel.Smoothing
	// Solver computes velocities and vortex stretching for a System.
	Solver = field.Evaluator
)

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return vec.V3(x, y, z) }

// VortexSheet returns the paper's model problem: n particles on the
// unit sphere with ω = (3/8π)·sinθ·e_φ and σ = 18.53·h (Eq. 7–8).
func VortexSheet(n int) *System {
	return particle.SphericalVortexSheet(particle.DefaultSheet(n))
}

// ScaledVortexSheet is VortexSheet with the paper's absolute core size
// σ ≈ 0.657 (its value at N = 10,000) — the right choice when scaling
// n down, since σ = 18.53·h over-smooths small ensembles.
func ScaledVortexSheet(n int) *System {
	return particle.SphericalVortexSheet(particle.ScaledSheet(n))
}

// CoulombCloud returns the homogeneous neutral plasma workload of the
// strong-scaling study (Fig. 5).
func CoulombCloud(n int, seed int64) *System {
	return particle.HomogeneousCoulomb(n, seed)
}

// RandomBlob returns a normally distributed cloud of vortex particles
// (a generic test workload).
func RandomBlob(n int, sigma float64, seed int64) *System {
	return particle.RandomVortexBlob(n, sigma, seed)
}

// Diagnose computes the invariants and monitors of a system.
func Diagnose(s *System) Diagnostics { return particle.Diagnose(s) }

// Kernel returns a smoothing kernel by name: "algebraic2" or
// "algebraic6" (the paper's sixth-order kernel).
func Kernel(name string) (Smoothing, error) {
	k, ok := kernel.ByName(name)
	if !ok {
		return k, fmt.Errorf("nbody: unknown kernel %q", name)
	}
	return k, nil
}

// NewDirectSolver returns the O(N²) direct-summation solver with the
// sixth-order algebraic kernel and the paper's transpose stretching
// scheme.
func NewDirectSolver() Solver {
	return direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
}

// NewTreeSolver returns the Barnes-Hut solver with MAC parameter θ
// (θ = 0 reproduces direct summation; the paper uses 0.3 fine / 0.6
// coarse).
func NewTreeSolver(theta float64) Solver {
	return tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
}

// NewTreeSolverKernel is NewTreeSolver with an explicit kernel.
func NewTreeSolverKernel(sm Smoothing, theta float64) Solver {
	return tree.NewSolver(sm, kernel.Transpose, theta)
}

// Integrator selects the time-stepping method of a serial Simulation.
type Integrator struct {
	kind   string
	order  int // RK order
	nodes  int // SDC collocation nodes
	sweeps int // SDC sweeps
}

// RK returns a classical Runge–Kutta integrator of order 1–4 (the
// paper's Fig. 1 uses order 2).
func RK(order int) Integrator { return Integrator{kind: "rk", order: order} }

// SDC returns the spectral-deferred-correction integrator SDC(sweeps)
// on nodes Gauss–Lobatto points (the paper's baseline: 3 nodes, 4
// sweeps).
func SDC(nodes, sweeps int) Integrator {
	return Integrator{kind: "sdc", nodes: nodes, sweeps: sweeps}
}

// Simulation evolves a particle system with a spatial solver and a
// time integrator.
type Simulation struct {
	Sys        *System
	Solver     Solver
	Integrator Integrator
	// OnStep, when non-nil, is called after every step with the
	// current time and state.
	OnStep func(t float64, sys *System)
}

// NewSimulation returns a simulation with the paper's defaults: tree
// solver at θ = 0.3 and SDC(4) on three Lobatto nodes.
func NewSimulation(sys *System) *Simulation {
	return &Simulation{Sys: sys, Solver: NewTreeSolver(0.3), Integrator: SDC(3, 4)}
}

// Run advances the system in place from t0 to t1 in nsteps equal
// steps.
func (s *Simulation) Run(t0, t1 float64, nsteps int) error {
	if nsteps < 1 {
		return fmt.Errorf("nbody: nsteps %d < 1", nsteps)
	}
	odeSys := core.NewVortexSystem(s.Sys, s.Solver)
	u := s.Sys.PackNew()
	dt := (t1 - t0) / float64(nsteps)

	step := func(t float64, u []float64) error { return nil }
	switch s.Integrator.kind {
	case "", "sdc":
		nodes, sweeps := s.Integrator.nodes, s.Integrator.sweeps
		if nodes == 0 {
			nodes, sweeps = 3, 4
		}
		in := sdc.NewIntegrator(odeSys, nodes, sweeps)
		step = func(t float64, u []float64) error {
			in.Step(t, dt, u)
			return nil
		}
	case "rk":
		scheme, err := rk.ByOrder(s.Integrator.order)
		if err != nil {
			return err
		}
		st := rk.NewStepper(scheme, odeSys)
		step = func(t float64, u []float64) error {
			st.Step(t, dt, u)
			return nil
		}
	default:
		return fmt.Errorf("nbody: unknown integrator kind %q", s.Integrator.kind)
	}

	for n := 0; n < nsteps; n++ {
		if err := step(t0+float64(n)*dt, u); err != nil {
			return err
		}
		if s.OnStep != nil {
			s.Sys.Unpack(u)
			s.OnStep(t0+float64(n+1)*dt, s.Sys)
		}
	}
	s.Sys.Unpack(u)
	return nil
}
