package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hot"
	"repro/internal/telemetry"
)

func TestTablePrintAndCSV(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("note %d", 7)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "bb", "# note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	buf.Reset()
	tb.CSV(&buf)
	if buf.String() != "a,bb\n1,2\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestFig1VortexSheetDescendsAndRollsUp(t *testing.T) {
	cfg := Fig1Config{N: 400, Dt: 1, TEnd: 6, Theta: 0.5, Snapshot: 2}
	snaps, tb := Fig1VortexSheet(cfg)
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	first, last := snaps[0], snaps[len(snaps)-1]
	// The sheet is the vortex representation of flow past a sphere with
	// unit free-stream velocity along −z: the centroid must descend by
	// roughly one unit per time unit.
	if last.ZCentroid >= first.ZCentroid {
		t.Fatalf("sheet did not descend: %+v -> %+v", first.ZCentroid, last.ZCentroid)
	}
	drop := first.ZCentroid - last.ZCentroid
	perTime := drop / last.Time
	// The sheet strength (3/8π)·sinθ corresponds to a translation speed
	// of order 1/(4π) ≈ 0.08 per unit time (Eq. 7 normalization).
	if perTime < 0.01 || perTime > 1 {
		t.Fatalf("descent rate %.3f per unit time implausible (expect ~0.05)", perTime)
	}
	// Roll-up concentrates circulation.
	if last.MaxAlpha <= first.MaxAlpha {
		t.Fatalf("no circulation concentration: %g -> %g", first.MaxAlpha, last.MaxAlpha)
	}
	if len(tb.Rows) != len(snaps) {
		t.Fatalf("table rows %d != snapshots %d", len(tb.Rows), len(snaps))
	}
}

func TestFig7aOrders(t *testing.T) {
	cfg := Fig7Config{N: 80, TEnd: 2, Dts: []float64{1, 0.5, 0.25}, RefDt: 0.0625}
	results, tb := Fig7aSDCConvergence(cfg)
	if len(results) != 3 {
		t.Fatalf("%d curves", len(results))
	}
	for _, r := range results {
		if math.Abs(r.Order-float64(r.Sweeps)) > 1.0 {
			t.Errorf("SDC(%d): fitted order %.2f", r.Sweeps, r.Order)
		}
		for i := 1; i < len(r.Errors); i++ {
			if r.Errors[i] >= r.Errors[i-1] {
				t.Errorf("SDC(%d): errors not decreasing: %v", r.Sweeps, r.Errors)
			}
		}
	}
	// Higher sweep count gives smaller error at the smallest dt.
	last := len(cfg.Dts) - 1
	if !(results[2].Errors[last] < results[1].Errors[last] &&
		results[1].Errors[last] < results[0].Errors[last]) {
		t.Errorf("error hierarchy violated: %g %g %g",
			results[0].Errors[last], results[1].Errors[last], results[2].Errors[last])
	}
	if len(tb.Rows) != len(cfg.Dts) {
		t.Fatal("table shape wrong")
	}
}

func TestFig7bPFASSTTracksSDC(t *testing.T) {
	cfg := Fig7Config{N: 80, TEnd: 2, Dts: []float64{0.5, 0.25}, RefDt: 0.0625, PTs: []int{4}}
	sdcCurves, pfCurves, tb := Fig7bPFASSTConvergence(cfg)
	if len(sdcCurves) != 2 || len(pfCurves) != 2 {
		t.Fatalf("curve counts %d %d", len(sdcCurves), len(pfCurves))
	}
	last := len(cfg.Dts) - 1
	// PFASST(1,2) within a modest factor of SDC(3); PFASST(2,2) better
	// than PFASST(1,2).
	if pf, sd := pfCurves[0].Errors[last], sdcCurves[0].Errors[last]; pf > 25*sd {
		t.Errorf("PFASST(1,2) error %g far above SDC(3) %g", pf, sd)
	}
	// The second iteration must improve unless both runs already sit at
	// the reference-accuracy floor.
	if pfCurves[1].Errors[last] >= pfCurves[0].Errors[last] && pfCurves[0].Errors[last] > 1e-8 {
		t.Errorf("second iteration did not improve: %g vs %g",
			pfCurves[1].Errors[last], pfCurves[0].Errors[last])
	}
	for _, r := range pfCurves {
		if r.Errors[last] > 1e-9 && r.Order < 1.5 {
			t.Errorf("PFASST(%d,2,%d): order %.2f too low", r.Iters, r.PT, r.Order)
		}
	}
	if len(tb.Header) != 3+len(pfCurves) {
		t.Fatal("table header wrong")
	}
}

func TestFig5ExecutedShape(t *testing.T) {
	cfg := Fig5ExecConfig{
		NExec: 2048, ExecRanks: []int{1, 2, 4, 8}, Theta: 0.6, Eps: 0.01, Seed: 3,
	}
	points := Fig5Executed(cfg, hot.BranchRing)
	tb, ptb := Fig5Tables(cfg, points)
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	if len(ptb.Rows) != 4 {
		t.Fatal("phases table shape wrong")
	}
	// Traversal time must shrink with more ranks; branch count must
	// grow.
	if points[3].VTTraverse >= points[0].VTTraverse {
		t.Errorf("traversal did not shrink: %v -> %v", points[0].VTTraverse, points[3].VTTraverse)
	}
	if points[3].TotalBranches <= points[1].TotalBranches {
		t.Errorf("branches did not grow: %d -> %d", points[1].TotalBranches, points[3].TotalBranches)
	}
	if len(tb.Rows) != 4 {
		t.Fatal("table shape wrong")
	}
}

func TestFig5ModelSaturation(t *testing.T) {
	fit := BranchFit{A: 10, Exp: 0.9}
	cfg := DefaultFig5()
	points, tb := Fig5Model(cfg, fit)
	if len(points) != len(cfg.NModel)*len(cfg.ModelCores) {
		t.Fatalf("%d model points", len(points))
	}
	// The Fig. 5 claim: small N saturates at far fewer cores than
	// large N.
	satSmall := SaturationCores(points, 0.125e6)
	satLarge := SaturationCores(points, 2048e6)
	if satSmall >= satLarge {
		t.Errorf("saturation cores: small %d >= large %d", satSmall, satLarge)
	}
	if satSmall < 4 || satSmall > 65536 {
		t.Errorf("small-N saturation at %d cores implausible", satSmall)
	}
	if satLarge < 16384 {
		t.Errorf("large-N saturation at %d cores too early", satLarge)
	}
	// Totals must be positive and the total at 262144 cores for the
	// small problem must exceed its own minimum (the curve turns up).
	minSmall := math.Inf(1)
	var atMax float64
	for _, p := range points {
		if p.N == 0.125e6 {
			minSmall = math.Min(minSmall, p.TTot)
			if p.Cores == 262144 {
				atMax = p.TTot
			}
		}
	}
	if !(atMax > 1.5*minSmall) {
		t.Errorf("small-N curve does not turn up: min %g, at 262144 cores %g", minSmall, atMax)
	}
	if len(tb.Rows) != len(points) {
		t.Fatal("table shape wrong")
	}
}

// Fig. 5 and fig5-xt are one study: fig5-xt's ring branch points are
// Fig. 5's executed points (running the batched exchange beside them
// moves none of them), the two tables print the same ring numbers, and
// the joint model's space-only ring terms are Fig. 5's per-evaluation
// sort, build and branch exchange scaled by the sweeps.
func TestFig5XTSharesFig5(t *testing.T) {
	exec := Fig5ExecConfig{NExec: 1024, ExecRanks: []int{1, 2, 4}, Theta: 0.6, Eps: 0.01, Seed: 3}
	both := Fig5Executed(exec, hot.BranchRing, hot.BranchBatched)
	ring := Fig5Executed(exec, hot.BranchRing)
	xtRing := ModePoints(both, hot.BranchRing)
	if len(xtRing) != len(ring) || len(both) != 2*len(ring) {
		t.Fatalf("%d ring points beside the batched runs, %d alone, %d in all", len(xtRing), len(ring), len(both))
	}
	for i := range ring {
		got, want := xtRing[i], ring[i]
		got.Telemetry, want.Telemetry = telemetry.Snapshot{}, telemetry.Snapshot{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ring point %d: %+v beside the batched runs, %+v alone", i, xtRing[i], ring[i])
		}
	}
	tb, _ := Fig5Tables(exec, xtRing)
	xtb := Fig5XTBranchTable(exec, both)
	for i, row := range tb.Rows {
		x := xtb.Rows[2*i]
		// fig5-xt: ranks mode total branch traversal branches;
		// Fig. 5: ranks total decomp build branch traversal branches.
		if x[1] != "ring" || x[0] != row[0] || x[2] != row[1] || x[3] != row[4] || x[4] != row[5] || x[5] != row[6] {
			t.Errorf("row %d: fig5-xt %v, Fig. 5 %v", i, x, row)
		}
	}

	fit := BranchFit{A: 10, Exp: 0.9}
	xt := DefaultFig5XT()
	xtModel, _, _, _ := Fig5XTModel(xt, fit, 1, 0.2)
	sweeps := float64(xt.ModelSteps * xt.SerialSweeps)
	seen := 0
	for _, x := range xtModel {
		if x.PT != 1 || x.Mode != hot.BranchRing.String() {
			continue
		}
		seen++
		cfg := Fig5Config{NModel: []float64{xt.NModel}, ModelCores: []int{x.PS}}
		pts, _ := Fig5Model(cfg, fit)
		m := pts[0]
		if sweeps*m.TDecomp != x.TSort || sweeps*m.TBuild != x.TBuild || sweeps*m.TBranch != x.TBranch {
			t.Errorf("p=%d: Fig. 5 sort/build/branch %g/%g/%g x %g sweeps, joint model %g/%g/%g",
				x.PS, m.TDecomp, m.TBuild, m.TBranch, sweeps, x.TSort, x.TBuild, x.TBranch)
		}
	}
	if seen != len(xt.ModelCores) {
		t.Fatalf("%d space-only ring points, want %d", seen, len(xt.ModelCores))
	}
}

func TestFitBranchesRecoversPowerLaw(t *testing.T) {
	var pts []Fig5ExecPoint
	for _, p := range []int{2, 4, 8, 16, 32} {
		pts = append(pts, Fig5ExecPoint{
			Ranks:         p,
			TotalBranches: int(12 * math.Pow(float64(p), 0.8)),
		})
	}
	fit := FitBranches(pts)
	if math.Abs(fit.Exp-0.8) > 0.1 {
		t.Fatalf("fitted exponent %.2f, want 0.8", fit.Exp)
	}
	if fit.A < 6 || fit.A > 24 {
		t.Fatalf("fitted prefactor %.2f, want ~12", fit.A)
	}
	// Degenerate input falls back to defaults.
	fb := FitBranches(nil)
	if fb.A <= 0 || fb.Exp <= 0 {
		t.Fatal("fallback fit invalid")
	}
}

func TestThetaCoarseningRatio(t *testing.T) {
	res, tb := ThetaCoarseningRatio(3000, 0.3, 0.6)
	if res.Ratio < 1.5 || res.Ratio > 8 {
		t.Fatalf("ratio %.2f outside plausible range (paper: 2.65-3.23)", res.Ratio)
	}
	if math.Abs(res.Alpha-2/(res.Ratio*3)) > 1e-12 {
		t.Fatal("alpha formula broken")
	}
	if len(tb.Rows) != 2 {
		t.Fatal("table shape wrong")
	}
}

func TestPFASSTResidualsSmallAndComparable(t *testing.T) {
	cfg := ResidualsConfig{N: 256, PT: 2, PS: 2, Dt: 0.5, ThetaFine: 0.3, ThetaCoarse: 0.6, Iterations: 2}
	results, tb := PFASSTResiduals(cfg)
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if r.FirstSlice <= 0 || r.LastSlice <= 0 {
			t.Fatalf("residuals not populated: %+v", r)
		}
		// The paper's claim: MAC coarsening does not inhibit
		// convergence — residuals stay small (theirs: ~5e-5).
		if r.LastSlice > 1e-3 {
			t.Fatalf("residual %g too large — convergence inhibited?", r.LastSlice)
		}
	}
	// More iterations must reduce the coarsened residual.
	cfg.Iterations = 4
	deeper, _ := PFASSTResiduals(cfg)
	if deeper[1].LastSlice >= results[1].LastSlice {
		t.Fatalf("coarsened residual did not shrink with iterations: %g -> %g",
			results[1].LastSlice, deeper[1].LastSlice)
	}
	if len(tb.Rows) != 2 {
		t.Fatal("table shape wrong")
	}
}

func TestFig8SpeedupTracksTheory(t *testing.T) {
	cfg := Fig8Config{
		Name: "test", N: 384, PS: 2, PTs: []int{1, 2, 4}, Dt: 0.5,
		ThetaFine: 0.3, ThetaCoarse: 0.6,
		Iterations: 2, CoarseSweeps: 2, SerialSweeps: 4,
		CoresPerRank: 4,
	}
	points, tb := Fig8Speedup(cfg)
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Speedup must increase with PT and stay within the Eq. 25 bound.
	for i := 1; i < len(points); i++ {
		if points[i].Speedup <= points[i-1].Speedup {
			t.Errorf("speedup not increasing: PT=%d %.2f -> PT=%d %.2f",
				points[i-1].PT, points[i-1].Speedup, points[i].PT, points[i].Speedup)
		}
	}
	for _, p := range points {
		if p.Speedup > 2*float64(p.PT) {
			t.Errorf("PT=%d speedup %.2f above bound", p.PT, p.Speedup)
		}
		if p.Theory <= 0 {
			t.Errorf("theory value missing")
		}
		// Measured within a factor ~2.5 of theory (the paper's Fig. 8
		// shows close tracking; our virtual clock adds real overheads).
		ratio := p.Speedup / p.Theory
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("PT=%d: measured %.2f vs theory %.2f (ratio %.2f)",
				p.PT, p.Speedup, p.Theory, ratio)
		}
	}
	if len(tb.Rows) != 3 {
		t.Fatal("table shape wrong")
	}
}

func TestSpeedupModelTable(t *testing.T) {
	tb := SpeedupModelTable(4, 2, 2, []float64{0.25, 0.2}, 0.05, []int{2, 8, 32})
	if len(tb.Rows) != 3 || len(tb.Header) != 4 {
		t.Fatalf("table shape: %d rows, %d cols", len(tb.Rows), len(tb.Header))
	}
}

func TestAblationDipole(t *testing.T) {
	tb := AblationDipole(400, 0.6)
	if len(tb.Rows) != 2 {
		t.Fatal("shape")
	}
	// Row 0 = without dipole, row 1 = with; the with-error must be
	// strictly smaller (parse back from the formatted cells).
	var e0, e1 float64
	fmtSscan(t, tb.Rows[0][1], &e0)
	fmtSscan(t, tb.Rows[1][1], &e1)
	if e1 >= e0 {
		t.Fatalf("dipole did not improve: %g vs %g", e1, e0)
	}
}

func fmtSscan(t *testing.T, s string, out *float64) {
	t.Helper()
	if _, err := fmt.Sscanf(s, "%g", out); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
}

func TestAblationStretching(t *testing.T) {
	tb := AblationStretching(300, 2)
	if len(tb.Rows) != 2 {
		t.Fatal("shape")
	}
	var dTrans, dClass float64
	fmtSscan(t, tb.Rows[0][1], &dTrans)
	fmtSscan(t, tb.Rows[1][1], &dClass)
	if dTrans > 1e-12 {
		t.Fatalf("transpose scheme circulation drift %g, want ~0", dTrans)
	}
	if dClass <= dTrans {
		t.Fatalf("classical scheme should drift more: %g vs %g", dClass, dTrans)
	}
}

func TestAblationPararealVsPFASST(t *testing.T) {
	tb := AblationPararealVsPFASST(96, 4)
	if len(tb.Rows) != 4 {
		t.Fatal("shape")
	}
	// Compare at comparable COST: parareal K=1 spends 4 fine sweeps per
	// slice (one full SDC(4) solve), PFASST K=2 spends 3. PFASST must
	// reach at least comparable accuracy with less fine work.
	var ep1, ef2 float64
	fmtSscan(t, tb.Rows[0][3], &ep1) // parareal K=1
	fmtSscan(t, tb.Rows[3][3], &ef2) // PFASST K=2
	if ef2 > 3*ep1 {
		t.Fatalf("PFASST (3 sweeps) error %g far above parareal (4 sweeps) %g", ef2, ep1)
	}
}

func TestAblationLeafCap(t *testing.T) {
	tb := AblationLeafCap(500, []int{1, 8, 32})
	if len(tb.Rows) != 3 {
		t.Fatal("shape")
	}
	var i1, i32 int
	fmt.Sscanf(tb.Rows[0][1], "%d", &i1)
	fmt.Sscanf(tb.Rows[2][1], "%d", &i32)
	if i32 <= i1 {
		t.Fatalf("larger buckets should do more direct work: %d vs %d", i32, i1)
	}
}

// A record is history: WriteJSON creates a new file but never replaces
// one (the committed BENCH_PR7.json used to be the default target).
func TestBenchPR7WriteJSONNeverOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "record.json")
	res := BenchPR7Result{Measurement: "first run"}
	if err := res.WriteJSON(path); err != nil {
		t.Fatalf("new file: %v", err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res.Measurement = "second run"
	if err := res.WriteJSON(path); err == nil {
		t.Fatal("WriteJSON replaced an existing record")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("existing record modified by the refused write:\n%s", got)
	}
}
