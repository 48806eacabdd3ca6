package sdc

import (
	"math"
	"testing"

	"repro/internal/ode"
)

func oscillatorError(nNodes, sweeps, nsteps int) float64 {
	sys, exact := ode.Oscillator(1)
	in := NewIntegrator(sys, nNodes, sweeps)
	u := append([]float64(nil), exact(0)...)
	in.Integrate(0, 2, nsteps, u)
	return ode.MaxDiff(u, exact(2))
}

func TestSDCOrderEqualsSweeps(t *testing.T) {
	// The central claim of Fig. 7a: SDC(k) on three Lobatto nodes shows
	// order k for k = 2, 3, 4 (4 is the collocation limit of 3 Lobatto
	// nodes).
	for _, sweeps := range []int{1, 2, 3, 4} {
		e1 := oscillatorError(3, sweeps, 16)
		e2 := oscillatorError(3, sweeps, 32)
		rate := math.Log2(e1 / e2)
		if math.Abs(rate-float64(sweeps)) > 0.5 {
			t.Errorf("SDC(%d): observed order %.2f, want %d (e1=%g e2=%g)",
				sweeps, rate, sweeps, e1, e2)
		}
	}
}

func TestSDCOrderLimitedByCollocation(t *testing.T) {
	// With 3 Lobatto nodes the collocation order is 4: more sweeps must
	// not raise the observed order beyond ~4.
	e1 := oscillatorError(3, 8, 8)
	e2 := oscillatorError(3, 8, 16)
	rate := math.Log2(e1 / e2)
	if rate > 4.8 {
		t.Errorf("order %.2f exceeds the 3-node collocation limit", rate)
	}
	if rate < 3.4 {
		t.Errorf("order %.2f below the collocation limit 4", rate)
	}
}

func TestHighOrderReference(t *testing.T) {
	// The 8th-order reference configuration of Section IV-A: 5 Lobatto
	// nodes (collocation order 8) with 8 sweeps.
	sys, exact := ode.Oscillator(1)
	in := NewIntegrator(sys, 5, 8)
	u := append([]float64(nil), exact(0)...)
	in.Integrate(0, 2, 10, u)
	if err := ode.MaxDiff(u, exact(2)); err > 1e-10 {
		t.Fatalf("reference run error %g too large", err)
	}
}

func TestManySweepsReachCollocationSolution(t *testing.T) {
	// The residual must contract towards zero (the collocation fixed
	// point) as sweeps accumulate.
	sys, _ := ode.Logistic(0.3)
	sw := NewSweeper(sys, 4)
	sw.Setup(0, 0.5)
	sw.SetU0([]float64{0.3})
	sw.Spread()
	prev := math.Inf(1)
	for k := 0; k < 12; k++ {
		sw.Sweep()
		r := sw.Residual()
		if k > 1 && r > prev*1.5 {
			t.Fatalf("residual grew: sweep %d: %g -> %g", k, prev, r)
		}
		prev = r
	}
	if prev > 1e-12 {
		t.Fatalf("residual after 12 sweeps: %g", prev)
	}
}

func TestCollocationExactForPolynomialForcing(t *testing.T) {
	// u' = 3t² has solution t³, a polynomial the 3-node collocation
	// reproduces exactly once converged.
	sys := ode.FuncSystem{N: 1, Fn: func(tt float64, u, f []float64) { f[0] = 3 * tt * tt }}
	in := NewIntegrator(sys, 3, 10)
	u := []float64{0}
	in.Step(0, 2, u)
	if math.Abs(u[0]-8) > 1e-12 {
		t.Fatalf("u(2) = %v, want 8", u[0])
	}
}

func TestSweepEvaluationCount(t *testing.T) {
	// SetU0 evaluates nothing; Spread costs M+1 evaluations (nodes
	// 0..M); each sweep costs M more. This accounting feeds the PFASST
	// cost model.
	sys, _ := ode.Dahlquist(-1)
	sw := NewSweeper(sys, 3)
	sw.Setup(0, 0.1)
	sw.SetU0([]float64{1})
	if sw.NEvals != 0 {
		t.Fatalf("after SetU0: %d evals", sw.NEvals)
	}
	sw.Spread()
	if sw.NEvals != 3 {
		t.Fatalf("after Spread: %d evals", sw.NEvals)
	}
	sw.Sweep()
	if sw.NEvals != 5 {
		t.Fatalf("after Sweep: %d evals", sw.NEvals)
	}
}

func TestResidualZeroTauConsistency(t *testing.T) {
	// For the converged sweeper, adding zero Tau must not change the
	// residual definition.
	sys, _ := ode.Dahlquist(-2)
	sw := NewSweeper(sys, 3)
	sw.Setup(0, 0.25)
	sw.SetU0([]float64{1})
	sw.Spread()
	for i := 0; i < 20; i++ {
		sw.Sweep()
	}
	if r := sw.Residual(); r > 1e-13 {
		t.Fatalf("converged residual %g", r)
	}
}

func TestStepMatchesExactForSmallDt(t *testing.T) {
	sys, exact := ode.Dahlquist(-1)
	in := NewIntegrator(sys, 3, 4)
	u := []float64{1}
	in.Integrate(0, 1, 50, u)
	if err := math.Abs(u[0] - exact(1)[0]); err > 1e-9 {
		t.Fatalf("error %g", err)
	}
}

func TestStepResidualReturnsSmallValueWhenConverged(t *testing.T) {
	sys, _ := ode.Dahlquist(-1)
	in := NewIntegrator(sys, 3, 12)
	u := []float64{1}
	r := in.StepResidual(0, 0.1, u)
	if r > 1e-13 {
		t.Fatalf("residual %g", r)
	}
}

func TestNEvalsAccumulates(t *testing.T) {
	sys, _ := ode.Dahlquist(-1)
	in := NewIntegrator(sys, 3, 2)
	u := []float64{1}
	in.Integrate(0, 1, 4, u)
	// per step: 3 (Spread) + 2*2 (sweeps) = 7
	if got := in.NEvals(); got != 4*7 {
		t.Fatalf("NEvals = %d, want 28", got)
	}
}

func TestPanics(t *testing.T) {
	sys, _ := ode.Dahlquist(-1)
	for _, fn := range []func(){
		func() { NewSweeper(sys, 1) },
		func() { NewIntegrator(sys, 3, 0) },
		func() { NewIntegrator(sys, 3, 1).Integrate(0, 1, 0, []float64{1}) },
		func() {
			sw := NewSweeper(sys, 3)
			sw.Setup(0, 1)
			sw.SetU0([]float64{1, 2})
		},
		func() {
			sw := NewSweeper(sys, 3)
			sw.IntegrateSF(make([][]float64, 5))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestIntegrateSFMatchesQuadrature(t *testing.T) {
	// For F sampled from a polynomial of degree ≤ 2, (S F) must equal
	// the exact node-to-node integrals.
	sys := ode.FuncSystem{N: 1, Fn: func(tt float64, u, f []float64) { f[0] = 1 + 2*tt }}
	sw := NewSweeper(sys, 3)
	sw.Setup(0, 1)
	sw.SetU0([]float64{0})
	sw.Spread()
	dst := [][]float64{make([]float64, 1), make([]float64, 1)}
	sw.IntegrateSF(dst)
	// ∫_0^{1/2} (1+2t) dt = 0.75, ∫_{1/2}^1 = 1.25
	if math.Abs(dst[0][0]-0.75) > 1e-13 || math.Abs(dst[1][0]-1.25) > 1e-13 {
		t.Fatalf("SF = %v", dst)
	}
}

func BenchmarkSDC4Oscillator(b *testing.B) {
	sys, exact := ode.Oscillator(1)
	in := NewIntegrator(sys, 3, 4)
	u := make([]float64, 2)
	for i := 0; i < b.N; i++ {
		copy(u, exact(0))
		in.Integrate(0, 1, 4, u)
	}
}

func TestSetU0AppliesNodeZeroCorrection(t *testing.T) {
	// After SetU0 on a swept step, the next sweep must use the OLD F[0]
	// in its fOld snapshot and the NEW value afterwards — the
	// parareal-like G(new)−G(old) mechanism of the PFASST pipeline.
	sys, _ := ode.Dahlquist(-1)
	sw := NewSweeper(sys, 3)
	sw.Setup(0, 0.5)
	sw.SetU0([]float64{1})
	sw.Spread()
	sw.Sweep()
	sw.SetU0([]float64{2})
	if sw.NEvals != 5 {
		t.Fatalf("SetU0 evaluated: %d evals, want 5", sw.NEvals)
	}
	before := append([]float64(nil), sw.UEnd()...)
	sw.Sweep()
	// The sweep re-evaluates F[0] once, then nodes 1..M.
	if sw.NEvals != 8 {
		t.Fatalf("after Sweep: %d evals, want 8", sw.NEvals)
	}
	// The end value must have moved substantially toward the doubled
	// initial condition (a *no-op* initial value handling would not).
	if sw.UEnd()[0] < before[0]+0.3 {
		t.Fatalf("new initial value not propagated: %v -> %v", before, sw.UEnd())
	}
}

func TestSweepIsAffineForLinearSystems(t *testing.T) {
	// For a linear ODE u' = λu the sweep map is affine in the node
	// values: sweep(a·U + b·V) = a·sweep(U) + b·sweep(V) when the
	// initial values combine the same way. Verified by superposition.
	lam := -0.8
	sys := ode.FuncSystem{N: 1, Fn: func(tt float64, u, f []float64) { f[0] = lam * u[0] }}
	run := func(u0 float64, sweeps int) float64 {
		sw := NewSweeper(sys, 3)
		sw.Setup(0, 0.5)
		sw.SetU0([]float64{u0})
		sw.Spread()
		for k := 0; k < sweeps; k++ {
			sw.Sweep()
		}
		return sw.UEnd()[0]
	}
	for _, sweeps := range []int{1, 2, 3} {
		a, b := 2.0, -3.0
		lhs := run(a*1.0+b*0.5, sweeps)
		rhs := a*run(1.0, sweeps) + b*run(0.5, sweeps)
		if math.Abs(lhs-rhs) > 1e-12*(1+math.Abs(rhs)) {
			t.Fatalf("sweeps=%d: affine superposition violated: %g vs %g", sweeps, lhs, rhs)
		}
	}
}

func TestSweepMatchesDahlquistStabilityFunction(t *testing.T) {
	// One spread + k sweeps on u' = λu over one step is a rational
	// approximation R_k(λΔt) to exp(λΔt) of order k; check the k=1
	// value against the hand-computed stability polynomial for 3
	// Lobatto nodes.
	lam, dt := -1.0, 0.3
	sys := ode.FuncSystem{N: 1, Fn: func(tt float64, u, f []float64) { f[0] = lam * u[0] }}
	sw := NewSweeper(sys, 3)
	sw.Setup(0, dt)
	sw.SetU0([]float64{1})
	sw.Spread()
	sw.Sweep()
	// After spread, F = λ at all nodes. One sweep:
	// U1 = 1 + Δt/2·(λ·1 − λ·1) + λ∫_0^{1/2} = 1 + λΔt·(S0·1)
	// with Σ_j S[0][j] = 1/2 and Σ_j S[1][j] = 1/2:
	// U1 = 1 + λΔt/2; U2 = U1 + Δt/2(λU1 − λ) + λΔt/2
	z := lam * dt
	u1 := 1 + z/2
	u2 := u1 + z/2*(u1-1) + z/2
	if math.Abs(sw.UEnd()[0]-u2) > 1e-14 {
		t.Fatalf("one-sweep value %g, hand-computed %g", sw.UEnd()[0], u2)
	}
}
