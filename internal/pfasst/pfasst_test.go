package pfasst_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/mpi"
	"repro/internal/ode"
	. "repro/internal/pfasst"
	"repro/internal/sdc"
)

// twoLevel builds the paper's standard hierarchy: 3 fine + 2 coarse
// Lobatto nodes, same right-hand side on both levels (identity spatial
// coarsening).
func twoLevel(sys ode.System) []LevelSpec {
	return []LevelSpec{
		{Sys: sys, NNodes: 3},
		{Sys: sys, NNodes: 2},
	}
}

// runPFASST executes a PFASST solve on p ranks and returns the final
// solution along with rank-(p−1) residual diagnostics.
func runPFASST(t *testing.T, sys ode.System, cfg Config, p int, t1 float64, nsteps int, u0 []float64) ([]float64, Result) {
	t.Helper()
	var out []float64
	var last Result
	err := mpi.Run(p, func(c *mpi.Comm) error {
		res, err := Run(c, cfg, 0, t1, nsteps, u0)
		if err != nil {
			return err
		}
		if c.Rank() == p-1 {
			out = res.U
			last = res
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, last
}

func TestPFASSTConvergesToSerialCollocation(t *testing.T) {
	// With many iterations PFASST must reproduce the fine-level
	// collocation solution (= serial SDC with many sweeps).
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	const p, nsteps = 4, 4
	want := append([]float64(nil), u0...)
	sdc.NewIntegrator(sys, 3, 14).Integrate(0, 2, nsteps, want)

	cfg := Config{Levels: twoLevel(sys), Iterations: 12, CoarseSweeps: 2}
	got, res := runPFASST(t, sys, cfg, p, 2, nsteps, u0)
	if d := ode.MaxDiff(got, want); d > 1e-9 {
		t.Fatalf("PFASST differs from serial collocation by %g", d)
	}
	if res.Residuals[0] > 1e-8 {
		t.Fatalf("final residual %g", res.Residuals[0])
	}
}

func TestPFASSTOrderMatchesSDC(t *testing.T) {
	// The Fig. 7b claim: PFASST(1,2,·) approximates third-order SDC and
	// PFASST(2,2,·) tracks fourth-order SDC: high observed order, error
	// levels within a small factor of the matching serial SDC run, and
	// a strict accuracy gain from the second iteration.
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	errAt := func(iters, nsteps int) float64 {
		cfg := Config{Levels: twoLevel(sys), Iterations: iters, CoarseSweeps: 2}
		got, _ := runPFASST(t, sys, cfg, 8, 2, nsteps, u0)
		return ode.MaxDiff(got, exact(2))
	}
	sdcErr := func(sweeps, nsteps int) float64 {
		u := append([]float64(nil), u0...)
		sdc.NewIntegrator(sys, 3, sweeps).Integrate(0, 2, nsteps, u)
		return ode.MaxDiff(u, exact(2))
	}
	for _, tc := range []struct {
		iters    int
		minOrder float64
	}{
		{1, 2.6}, {2, 2.6},
	} {
		e1 := errAt(tc.iters, 16)
		e2 := errAt(tc.iters, 32)
		rate := math.Log2(e1 / e2)
		if rate < tc.minOrder {
			t.Errorf("PFASST(%d,2): observed order %.2f below %v (e1=%g e2=%g)",
				tc.iters, rate, tc.minOrder, e1, e2)
		}
	}
	// The second iteration must improve on the first, and PFASST(1,2)
	// must land within an order of magnitude of SDC(3).
	if e2, e1 := errAt(2, 32), errAt(1, 32); e2 >= e1 {
		t.Errorf("PFASST(2,2) error %g not below PFASST(1,2) %g", e2, e1)
	}
	if pf, sd := errAt(1, 32), sdcErr(3, 32); pf > 10*sd {
		t.Errorf("PFASST(1,2) error %g far above SDC(3) %g", pf, sd)
	}
}

func TestPFASSTResidualDecreasesWithIterations(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	resid := func(iters int) float64 {
		cfg := Config{Levels: twoLevel(sys), Iterations: iters, CoarseSweeps: 2}
		_, r := runPFASST(t, sys, cfg, 4, 2, 4, u0)
		return r.Residuals[0]
	}
	r2, r6 := resid(2), resid(6)
	if r6 >= r2 {
		t.Fatalf("residual did not decrease: K=2 %g, K=6 %g", r2, r6)
	}
}

func TestPFASSTMultiBlock(t *testing.T) {
	// nsteps = 4 blocks of 4 ranks.
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	cfg := Config{Levels: twoLevel(sys), Iterations: 6, CoarseSweeps: 2}
	got, res := runPFASST(t, sys, cfg, 4, 4, 16, u0)
	want := append([]float64(nil), u0...)
	sdc.NewIntegrator(sys, 3, 12).Integrate(0, 4, 16, want)
	if d := ode.MaxDiff(got, want); d > 1e-6 {
		t.Fatalf("multi-block PFASST differs from serial SDC by %g", d)
	}
	if len(res.Residuals) != 4 {
		t.Fatalf("expected 4 block residuals, got %d", len(res.Residuals))
	}
}

func TestPFASSTSingleRank(t *testing.T) {
	// PT = 1 degenerates to a serial multi-level SDC (MLSDC) iteration
	// and must still converge to the collocation solution.
	sys, exact := ode.Dahlquist(-1)
	cfg := Config{Levels: twoLevel(sys), Iterations: 8, CoarseSweeps: 2}
	got, _ := runPFASST(t, sys, cfg, 1, 1, 2, exact(0))
	want := append([]float64(nil), exact(0)...)
	sdc.NewIntegrator(sys, 3, 12).Integrate(0, 1, 2, want)
	if d := ode.MaxDiff(got, want); d > 1e-9 {
		t.Fatalf("MLSDC differs from collocation by %g", d)
	}
}

func TestPFASSTIterDiffsReported(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	cfg := Config{Levels: twoLevel(sys), Iterations: 4, CoarseSweeps: 2}
	_, res := runPFASST(t, sys, cfg, 4, 2, 4, exact(0))
	if len(res.IterDiffs) != 1 {
		t.Fatalf("IterDiffs length %d", len(res.IterDiffs))
	}
	if res.IterDiffs[0] <= 0 || res.IterDiffs[0] > 1 {
		t.Fatalf("implausible iteration diff %g", res.IterDiffs[0])
	}
}

func TestPFASSTSpatialCoarseningHook(t *testing.T) {
	// A coarse level with a *perturbed* right-hand side (analog of a
	// larger θ) must still converge to the FINE collocation solution —
	// the FAS correction guarantees it.
	fineSys, exact := ode.Oscillator(1)
	coarseSys := ode.FuncSystem{N: 2, Fn: func(tt float64, u, f []float64) {
		// 5% error in the coarse operator.
		f[0] = u[1] * 1.05
		f[1] = -u[0] * 0.95
	}}
	cfg := Config{
		Levels: []LevelSpec{
			{Sys: fineSys, NNodes: 3},
			{Sys: coarseSys, NNodes: 2},
		},
		Iterations: 12, CoarseSweeps: 2,
	}
	got, _ := runPFASST(t, fineSys, cfg, 4, 2, 4, exact(0))
	want := append([]float64(nil), exact(0)...)
	sdc.NewIntegrator(fineSys, 3, 14).Integrate(0, 2, 4, want)
	if d := ode.MaxDiff(got, want); d > 1e-9 {
		t.Fatalf("PFASST with inexact coarse operator differs by %g", d)
	}
}

func TestRunValidation(t *testing.T) {
	sys, _ := ode.Dahlquist(-1)
	osc, _ := ode.Oscillator(1) // Dim 2; sys has Dim 1
	err := mpi.Run(2, func(c *mpi.Comm) error {
		cases := []Config{
			{Levels: []LevelSpec{{Sys: sys, NNodes: 3}}, Iterations: 1},                                               // 1 level
			{Levels: []LevelSpec{{Sys: sys, NNodes: 5}, {Sys: sys, NNodes: 3}, {Sys: sys, NNodes: 2}}, Iterations: 1}, // 3 levels
			{Levels: []LevelSpec{{Sys: osc, NNodes: 3}, {Sys: sys, NNodes: 2}}, Iterations: 1},                        // fine Dim 2 over coarse Dim 1
			{Levels: []LevelSpec{{Sys: sys, NNodes: 3}, {Sys: osc, NNodes: 2}}, Iterations: 1},                        // fine Dim 1 over coarse Dim 2
			{Levels: twoLevel(sys), Iterations: 0},                                                                    // no iterations
			{Levels: []LevelSpec{{Sys: sys, NNodes: 3}, {Sys: sys, NNodes: 1}}, Iterations: 1},                        // bad nodes
			{Levels: twoLevel(sys), Iterations: 1, Resilience: Resilience{RecvTimeout: time.Second}},                  // recovery is core's grid loop
			{Levels: twoLevel(sys), Iterations: 1, Guard: guard.New(guard.Policy{Enabled: true}, 0, nil)},             // so is the guard ladder
			{Levels: twoLevel(osc), Iterations: 1},                                                                    // u0 = {1} over Dim 2
		}
		for i, cfg := range cases {
			if _, err := Run(c, cfg, 0, 1, 2, []float64{1}); err == nil {
				t.Errorf("case %d: expected error", i)
			}
		}
		// nsteps not a multiple of ranks.
		if _, err := Run(c, Config{Levels: twoLevel(sys), Iterations: 1}, 0, 1, 3, []float64{1}); err == nil {
			t.Error("expected error for indivisible nsteps")
		}
		// Non-nested nodes (4 is not a subset of 5).
		cfgBad := Config{Levels: []LevelSpec{{Sys: sys, NNodes: 5}, {Sys: sys, NNodes: 4}}, Iterations: 1}
		if _, err := Run(c, cfgBad, 0, 1, 2, []float64{1}); err == nil {
			t.Error("expected error for non-nested nodes")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTheorySpeedupFormulas(t *testing.T) {
	// Eq. (24) equals Eq. (23) for the two-level configuration.
	pt, ks, kp := 16, 4, 2
	alpha, beta, nL := 0.25, 0.1, 2.0
	s24 := TwoLevelSpeedup(pt, ks, kp, nL, alpha, beta)
	s23 := TheorySpeedup(pt, ks, kp,
		[]float64{1, nL},                     // n_0 = 1 fine sweep, n_1 = nL coarse sweeps
		[]float64{1, alpha},                  // sweep costs
		[]float64{beta / 2, beta / (2 * nL)}, // overheads chosen so Σ n_l γ_l = β
	)
	if math.Abs(s24-s23) > 1e-12*s24 {
		t.Fatalf("Eq.23 %g vs Eq.24 %g", s23, s24)
	}
	// The bound of Eq. (25).
	if s24 > MaxSpeedup(pt, ks, kp) {
		t.Fatalf("speedup %g exceeds bound %g", s24, MaxSpeedup(pt, ks, kp))
	}
	// Smaller α (cheaper coarse level) gives more speedup.
	if TwoLevelSpeedup(pt, ks, kp, nL, 0.1, beta) <= s24 {
		t.Fatal("smaller alpha must increase speedup")
	}
	// Efficiency bound Ks/Kp beats parareal's 1/Kp.
	if EfficiencyBound(ks, kp) != 1 {
		t.Fatalf("Ks=4,Kp=2 efficiency bound = %g, want 1 (capped)", EfficiencyBound(ks, kp))
	}
	if EfficiencyBound(2, 4) != 0.5 {
		t.Fatal("Ks/Kp bound wrong")
	}
}

func TestSweepCountsReported(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	cfg := Config{Levels: twoLevel(sys), Iterations: 3, CoarseSweeps: 2}
	_, res := runPFASST(t, sys, cfg, 4, 2, 4, exact(0))
	// Rank 3 (last): predictor does rank+1 = 4 coarse sweeps, then 3
	// iterations × 2 coarse sweeps = 6; fine: 3 iterations × 1 plus the
	// finalizing sweep.
	if res.SweepsCoarse != 4+6 {
		t.Fatalf("coarse sweeps %d, want 10", res.SweepsCoarse)
	}
	if res.SweepsFine != 3+1 {
		t.Fatalf("fine sweeps %d, want 4", res.SweepsFine)
	}
}

// countingSystem wraps sys in an ode.FuncSystem that counts its F
// calls in *n.
func countingSystem(sys ode.System, n *int) ode.System {
	return ode.FuncSystem{N: sys.Dim(), Fn: func(tt float64, u, f []float64) {
		*n++
		sys.F(tt, u, f)
	}}
}

func TestEvaluationSchedule(t *testing.T) {
	// Every slice makes N_f + K·(M_f + N_f) + M_f fine evaluations per
	// block: the predictor's interpolation evaluates the N_f fine nodes,
	// each iteration's fine sweep M_f and its interpolation N_f (the
	// received initial value is evaluated there, not on receipt), and
	// the trailing sweep M_f. Rank r's coarse level makes N_c + (2r+1)
	// in the predictor (its Spread, then r+1 sweeps, each after the
	// first re-evaluating the received F_0) and, per iteration, N_c in
	// the restriction plus nL sweeps of M_c, or M_c + 1 when a value
	// arrives from the left.
	const blocks, nf, mf, nc, mc, nL = 2, 3, 2, 2, 1, 2
	osc, exact := ode.Oscillator(1)
	for _, p := range []int{1, 2, 4} {
		for _, k := range []int{1, 2, 3} {
			fineN, coarseN := make([]int, p), make([]int, p)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				r := c.Rank()
				cfg := Config{
					Levels: []LevelSpec{
						{Sys: countingSystem(osc, &fineN[r]), NNodes: nf},
						{Sys: countingSystem(osc, &coarseN[r]), NNodes: nc},
					},
					Iterations: k, CoarseSweeps: nL,
				}
				_, err := Run(c, cfg, 0, 1, blocks*p, exact(0))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				if want := blocks * (nf + k*(mf+nf) + mf); fineN[r] != want {
					t.Errorf("PT=%d K=%d rank %d: %d fine evaluations, want %d", p, k, r, fineN[r], want)
				}
				recv := 0
				if r > 0 {
					recv = 1
				}
				if want := blocks * (nc + 2*r + 1 + k*(nc+nL*(mc+recv))); coarseN[r] != want {
					t.Errorf("PT=%d K=%d rank %d: %d coarse evaluations, want %d", p, k, r, coarseN[r], want)
				}
			}
		}
	}
}

func TestAdaptiveToleranceStopsEarly(t *testing.T) {
	sys, exact := ode.Oscillator(1)
	u0 := exact(0)
	// Loose tolerance: far fewer than the configured 12 iterations.
	cfg := Config{Levels: twoLevel(sys), Iterations: 12, CoarseSweeps: 2, Tol: 1e-4}
	_, res := runPFASST(t, sys, cfg, 4, 2, 4, u0)
	if len(res.IterationsRun) != 1 {
		t.Fatalf("IterationsRun %v", res.IterationsRun)
	}
	ran := res.IterationsRun[0]
	if ran >= 12 {
		t.Fatalf("tolerance did not stop early: ran %d", ran)
	}
	if ran < 1 {
		t.Fatalf("implausible iteration count %d", ran)
	}
	// Tight tolerance runs longer than loose.
	cfgTight := cfg
	cfgTight.Tol = 1e-10
	_, resT := runPFASST(t, sys, cfgTight, 4, 2, 4, u0)
	if resT.IterationsRun[0] <= ran {
		t.Fatalf("tighter tolerance should need more iterations: %d vs %d",
			resT.IterationsRun[0], ran)
	}
	// And the tight result must be more accurate.
	if resT.IterDiffs[0] >= res.IterDiffs[0] {
		t.Fatalf("tight tolerance not more converged: %g vs %g",
			resT.IterDiffs[0], res.IterDiffs[0])
	}
}

func TestAdaptiveToleranceConsistentAcrossRanks(t *testing.T) {
	// Every rank must agree on the iteration count (the allreduce
	// guarantees it); a mismatch would deadlock, so completing at all
	// plus matching counts is the assertion.
	sys, exact := ode.Oscillator(1)
	cfg := Config{Levels: twoLevel(sys), Iterations: 8, CoarseSweeps: 2, Tol: 1e-6}
	counts := make([]int, 4)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		res, err := Run(c, cfg, 0, 2, 8, exact(0)) // two blocks
		if err != nil {
			return err
		}
		counts[c.Rank()] = res.IterationsRun[0]
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if counts[r] != counts[0] {
			t.Fatalf("iteration counts diverge: %v", counts)
		}
	}
}
