package nbody

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section. Each benchmark regenerates its artifact and
// reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation within
// Go's default 10-minute test timeout. The benchmarks use slightly
// smaller configurations than `cmd/experiments` (which prints the full
// tables); EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hot"
)

// BenchmarkFig1VortexSheetEvolution regenerates the Fig. 1 evolution
// (spherical vortex sheet, RK2, Δt = 1) and reports the sheet descent
// per unit time.
func BenchmarkFig1VortexSheetEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snaps, _ := experiments.Fig1VortexSheet(experiments.DefaultFig1())
		last := snaps[len(snaps)-1]
		b.ReportMetric((snaps[0].ZCentroid-last.ZCentroid)/last.Time, "descent/t")
		b.ReportMetric(last.MaxAlpha/snaps[0].MaxAlpha, "rollup(x)")
	}
}

// BenchmarkFig5PEPCStrongScaling executes the parallel tree under
// virtual BG/P clocks, fits the branch growth and extrapolates the
// Fig. 5 curves; it reports the modeled saturation point of the small
// problem.
func BenchmarkFig5PEPCStrongScaling(b *testing.B) {
	cfg := experiments.DefaultFig5()
	for i := 0; i < b.N; i++ {
		points := experiments.Fig5Executed(cfg.Fig5ExecConfig, hot.BranchRing)
		fit := experiments.FitBranches(points)
		model, _ := experiments.Fig5Model(cfg, fit)
		b.ReportMetric(float64(experiments.SaturationCores(model, 0.125e6)), "satCores(0.125M)")
		b.ReportMetric(float64(experiments.SaturationCores(model, 2048e6)), "satCores(2048M)")
		b.ReportMetric(fit.Exp, "branchExp")
	}
}

// BenchmarkFig7aSDCConvergence regenerates the SDC accuracy study
// (Fig. 7a) and reports the fitted orders of SDC(2..4).
func BenchmarkFig7aSDCConvergence(b *testing.B) {
	cfg := experiments.DefaultFig7()
	cfg.Dts = []float64{0.5, 0.25}
	cfg.RefDt = 0.0625
	for i := 0; i < b.N; i++ {
		results, _ := experiments.Fig7aSDCConvergence(cfg)
		for _, r := range results {
			b.ReportMetric(r.Order, fmt.Sprintf("orderSDC(%d)", r.Sweeps))
		}
	}
}

// BenchmarkFig7bPFASSTConvergence regenerates the PFASST accuracy
// study (Fig. 7b) and reports the error ratio of PFASST(1,2) vs SDC(3)
// and PFASST(2,2) vs SDC(4) at the smallest step size.
func BenchmarkFig7bPFASSTConvergence(b *testing.B) {
	cfg := experiments.DefaultFig7()
	cfg.Dts = []float64{0.5, 0.25}
	cfg.RefDt = 0.0625
	cfg.PTs = []int{4}
	for i := 0; i < b.N; i++ {
		sdcCurves, pfCurves, _ := experiments.Fig7bPFASSTConvergence(cfg)
		last := len(cfg.Dts) - 1
		b.ReportMetric(pfCurves[0].Errors[last]/sdcCurves[0].Errors[last], "PF(1,2)/SDC3")
		b.ReportMetric(pfCurves[len(pfCurves)-1].Errors[last]/sdcCurves[1].Errors[last], "PF(2,2)/SDC4")
	}
}

// BenchmarkTableThetaCoarseningRatio measures the Section IV-B MAC
// coarsening cost ratio (paper: 2.65 / 3.23) and the resulting α.
func BenchmarkTableThetaCoarseningRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.ThetaCoarseningRatio(20000, 0.3, 0.6)
		b.ReportMetric(res.Ratio, "ratio")
		b.ReportMetric(res.Alpha, "alpha")
	}
}

// BenchmarkTablePFASSTResiduals regenerates the Section IV-B residual
// check (θ coarsening must not inhibit PFASST convergence).
func BenchmarkTablePFASSTResiduals(b *testing.B) {
	cfg := experiments.DefaultResiduals()
	for i := 0; i < b.N; i++ {
		results, _ := experiments.PFASSTResiduals(cfg)
		b.ReportMetric(results[0].LastSlice, "resid(0.3/0.3)")
		b.ReportMetric(results[1].LastSlice, "resid(0.3/0.6)")
	}
}

// BenchmarkFig8SpaceTimeSpeedup regenerates the Fig. 8 speedup study
// for the small setup and reports the speedup at the largest PT along
// with the Eq. 24 theory value.
func BenchmarkFig8SpaceTimeSpeedup(b *testing.B) {
	cfg := experiments.DefaultFig8Small()
	cfg.PTs = []int{1, 4, 8}
	for i := 0; i < b.N; i++ {
		points, _ := experiments.Fig8Speedup(cfg)
		last := points[len(points)-1]
		b.ReportMetric(last.Speedup, "speedup")
		b.ReportMetric(last.Theory, "theory")
		b.ReportMetric(float64(last.Cores), "cores")
	}
}

// BenchmarkFig8SpaceTimeSpeedupLarge is the large-setup variant
// (reduced here to fit the default test timeout; cmd/experiments runs
// the full configuration).
func BenchmarkFig8SpaceTimeSpeedupLarge(b *testing.B) {
	cfg := experiments.DefaultFig8Large()
	cfg.N = 2048
	cfg.PTs = []int{1, 8}
	for i := 0; i < b.N; i++ {
		points, _ := experiments.Fig8Speedup(cfg)
		last := points[len(points)-1]
		b.ReportMetric(last.Speedup, "speedup")
		b.ReportMetric(last.Theory, "theory")
	}
}

// BenchmarkEq23SpeedupModel sweeps the Eq. 23–25 speedup model — the
// theory curves drawn in Fig. 8 — and reports the two-level speedup at
// PT = 32 for the paper's α values.
func BenchmarkEq23SpeedupModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.SpeedupModelTable(4, 2, 2,
			[]float64{2.0 / (2.65 * 3), 2.0 / (3.23 * 3)}, 0.05,
			[]int{1, 2, 4, 8, 16, 32})
		if len(tb.Rows) != 6 {
			b.Fatal("model table wrong shape")
		}
	}
}

// BenchmarkAblationDipole quantifies the cluster dipole correction
// (accuracy gain at unchanged traversal cost).
func BenchmarkAblationDipole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.AblationDipole(1000, 0.6)
		if len(tb.Rows) != 2 {
			b.Fatal("shape")
		}
	}
}

// BenchmarkAblationStretching contrasts transpose vs classical
// stretching (conservation of total circulation).
func BenchmarkAblationStretching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.AblationStretching(300, 2)
		if len(tb.Rows) != 2 {
			b.Fatal("shape")
		}
	}
}

// BenchmarkAblationPararealVsPFASST compares the two parallel-in-time
// methods at matched fine-sweep cost (Section III-B4).
func BenchmarkAblationPararealVsPFASST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.AblationPararealVsPFASST(96, 4)
		if len(tb.Rows) != 4 {
			b.Fatal("shape")
		}
	}
}

// BenchmarkAblationLeafCap sweeps the tree bucket size.
func BenchmarkAblationLeafCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.AblationLeafCap(2000, []int{1, 4, 8, 16, 32})
		if len(tb.Rows) != 5 {
			b.Fatal("shape")
		}
	}
}
