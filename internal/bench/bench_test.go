package bench

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadManifest(t *testing.T) *Manifest {
	t.Helper()
	m, err := LoadManifest(".")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reduced shrinks a workload so that the whole suite stays in seconds:
// the accuracy gate belongs to the full size and is opened.
func reduced(w Workload) Workload {
	w.N = 96
	if w.Fleet {
		w.N = 24
	}
	w.ErrGate = 1
	return w
}

// TestManifestContract holds BENCHMARK.json to the driver's limits and
// to the workload table.
func TestManifestContract(t *testing.T) {
	m := loadManifest(t)
	ws := Workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q / code %q differ in name or why", i, m.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.Command) < 1 || len(m.Command) > 32 {
		t.Errorf("command of %d strings", len(m.Command))
	}
	if len(m.Paths) != 2 || m.Paths[0] != "internal/bench" || m.Paths[1] != "cmd/bench" {
		t.Errorf("paths %v, want the benchmark's two directories", m.Paths)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, d := range append(append([]MetricDef{}, m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// TestReducedWorkloadsEmitEveryMetric runs every workload at a reduced
// size, untraced and traced, and checks that exactly the metrics
// BENCHMARK.json declares come out — once each, finite, in the declared
// unit — and that the spans of the traced run nest.
func TestReducedWorkloadsEmitEveryMetric(t *testing.T) {
	m := loadManifest(t)
	declared := map[string]map[string]string{KindEndToEnd: {}, KindPerLayer: {}}
	for _, d := range m.EndToEnd {
		declared[KindEndToEnd][d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		declared[KindPerLayer][d.Name] = d.Unit
	}
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			res, err := Run(reduced(w), Options{
				Seed: 3, MinReps: 1, MinJobs: 4, Trace: traced,
				ProbeBudget: time.Millisecond, TmpRoot: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			kind := KindEndToEnd
			if traced {
				kind = KindPerLayer
			}
			got := map[string]int{}
			for _, row := range res.Rows {
				if !nameRE.MatchString(row.Metric) {
					t.Errorf("%s: metric name %q", w.Name, row.Metric)
				}
				if math.IsNaN(row.Value) || math.IsInf(row.Value, 0) {
					t.Errorf("%s %s: value %v", w.Name, row.Metric, row.Value)
				}
				if row.Kind == KindInfo {
					continue
				}
				got[row.Metric]++
				if row.Kind != kind {
					t.Errorf("%s traced=%v: %s has kind %s", w.Name, traced, row.Metric, row.Kind)
				}
				if unit, ok := declared[kind][row.Metric]; !ok || unit != row.Unit {
					t.Errorf("%s: %s [%s] is not declared as %s in %s", w.Name, row.Metric, row.Unit, kind, ManifestName)
				}
				if row.Kind == KindEndToEnd && !(row.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, row.Metric, row.Value)
				}
			}
			for name := range declared[kind] {
				if got[name] != 1 {
					t.Errorf("%s traced=%v: %s emitted %d times", w.Name, traced, name, got[name])
				}
			}
			if line, err := DriverLine(res); err != nil || len(line) == 0 {
				t.Errorf("%s: driver line: %v", w.Name, err)
			}
			checkSpans(t, res.Spans, traced)
		}
	}
}

// checkSpans verifies the span arithmetic of one run: children lie
// inside their parent and no self time is negative.
func checkSpans(t *testing.T, spans []Span, traced bool) {
	t.Helper()
	if traced != (len(spans) > 0) {
		t.Errorf("traced=%v but %d spans recorded", traced, len(spans))
	}
	for id, self := range SelfTimes(spans) {
		sp := spans[id]
		if self < -1e-9 {
			t.Errorf("span %s: self time %g < 0", sp.Name, self)
		}
		if sp.Parent >= 0 {
			p := spans[sp.Parent]
			if sp.Start < p.Start || sp.End > p.End {
				t.Errorf("span %s [%g, %g] not inside parent %s [%g, %g]", sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
			}
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 1, End: 4},
		{ID: 2, Parent: 0, Start: 5, End: 9},
		{ID: 3, Parent: 1, Start: 2, End: 3},
	}
	want := []float64{3, 2, 4, 1}
	for id, self := range SelfTimes(spans) {
		if math.Abs(self-want[id]) > 1e-12 {
			t.Errorf("span %d: self %g, want %g", id, self, want[id])
		}
	}
	checkSpans(t, spans, true)

	var off *Tracer
	if id := off.Begin(-1, "x"); id != -1 || off.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
	off.End(-1)
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, pct := Tail(ramp(49)); pct != 50 || v != 25 {
		t.Errorf("49 samples: p%d = %g, want the median 25", pct, v)
	}
	if v, pct := Tail(ramp(50)); pct != 80 || v != 40 {
		t.Errorf("50 samples: p%d = %g, want p80 = 40", pct, v)
	}
	if _, beyond := Percentile(ramp(50), 0.80); beyond != 10 {
		t.Errorf("50 samples: %d beyond p80, want 10", beyond)
	}
}

// TestQuartilesMatchPython pins Quartiles to the values of Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3, ok := Quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

// TestOneBitBreaksVerification flips the lowest mantissa bit of one
// coordinate of a final state: the fingerprint every verification
// check compares must change.
func TestOneBitBreaksVerification(t *testing.T) {
	w := reduced(Workloads()[0])
	a, b := w.input(1), w.input(1)
	if StateHash(a) != StateHash(b) {
		t.Fatal("the same seed gave different inputs")
	}
	if StateHash(a) == StateHash(w.input(2)) {
		t.Error("another seed gave the same input")
	}
	p := &b.Particles[len(b.Particles)/2].Pos.Y
	*p = math.Float64frombits(math.Float64bits(*p) ^ 1)
	if StateHash(a) == StateHash(b) {
		t.Error("a one-bit change of the state kept its hash")
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := &Manifest{
		Workloads: []WorkloadDef{{Name: "w"}},
		EndToEnd: []MetricDef{
			{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.10},
			{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	rec := func(solve, solveSpread, rate, failed float64) *Record {
		return &Record{Results: []*Result{{Workload: "w", Rows: []Row{
			{Workload: "w", Metric: "solve_s", Value: solve, Spread: solveSpread},
			{Workload: "w", Metric: "jobs_per_s", Value: rate},
			{Workload: "w", Metric: "failed_frac", Value: failed},
		}}}}
	}
	verdicts := func(old, new *Record) (string, string, bool) {
		rows, rose := Compare(m, old, new)
		if len(rows) != 2 {
			t.Fatalf("%d comparisons, want 2", len(rows))
		}
		return rows[0].Verdict, rows[1].Verdict, rose
	}
	base := rec(1, 0.02, 10, 0)
	if a, b, rose := verdicts(base, rec(1.09, 0.02, 9.1, 0)); a != VerdictOK || b != VerdictOK || rose {
		t.Errorf("within bounds: %s %s %v", a, b, rose)
	}
	if a, b, _ := verdicts(base, rec(1.11, 0.02, 8.9, 0)); a != VerdictRegressed || b != VerdictRegressed {
		t.Errorf("beyond bounds: %s %s", a, b)
	}
	if a, _, _ := verdicts(base, rec(1.5, 0.12, 10, 0)); a != VerdictUnresolved {
		t.Errorf("spread wider than the bound: %s", a)
	}
	if a, b, _ := verdicts(base, rec(0.5, 0.02, 20, 0)); a != VerdictOK || b != VerdictOK {
		t.Errorf("an improvement: %s %s", a, b)
	}
	if _, _, rose := verdicts(base, rec(1, 0.02, 10, 0.01)); !rose {
		t.Error("a rise of failed_frac went unnoticed")
	}
}

func TestRecordIsNeverOverwritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	rec := &Record{Schema: RecordSchema, Seed: 1}
	if err := WriteRecord(path, rec, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecord(path, &Record{Schema: RecordSchema, Seed: 2}, false); err == nil {
		t.Fatal("an existing record was overwritten without -force")
	}
	if got, err := ReadRecord(path); err != nil || got.Seed != 1 {
		t.Fatalf("record after the refused write: %+v, %v", got, err)
	}
	if err := WriteRecord(path, &Record{Schema: RecordSchema, Seed: 2}, true); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadRecord(path); err != nil || got.Seed != 2 {
		t.Fatalf("record after the forced write: %+v, %v", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Errorf("temp files left beside the record: %v, %v", entries, err)
	}
}
