// Package bench is the repository's one benchmark: five named
// workloads over the space-time solver and the nbodyd job daemon, six
// bounded end-to-end metrics, and per-layer probes in one schema
// (BENCHMARK.json at the repository root names them; README.md in this
// directory explains them).
//
// Every layer is measured from outside: the package times calls into
// the exported functions of kernel, tree, hot, mpi, sdc, pfasst, core,
// checkpoint, server and sched, and reads what the façade already
// returns (SpaceTimeStats, its telemetry snapshot, Daemon.Metrics). An
// untraced run (Options.Trace false) yields the end-to-end metrics
// with telemetry off; a separate traced run yields the per-layer rows,
// and the untraced medians are never taken from it.
package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	nbody "repro"
)

// Metric kinds of a Row: the two lists of BENCHMARK.json, and rows
// printed for the reader that the driver's contract has no slot for.
const (
	KindEndToEnd = "end_to_end"
	KindPerLayer = "per_layer"
	KindInfo     = "info"
)

// Row is one reported number: `workload metric value unit`.
type Row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Kind     string  `json:"kind"`
	// N, Min and Max describe the samples behind a median or a
	// percentile (N = 0 for a single measurement or an exact count).
	N   int     `json:"n,omitempty"`
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Spread is the interquartile distance of the samples as a share
	// of their median — what -compare holds against the metric's bound
	// before it calls a difference resolved.
	Spread float64 `json:"spread,omitempty"`
}

// Result is the outcome of one run of one workload.
type Result struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	// Correct is false when any verification check failed; Problems
	// says which.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Notes are remarks for the reader that are not failures.
	Notes []string `json:"notes,omitempty"`
	// Attempted and Failed count operations (solves or jobs): an
	// operation fails when it errors, is rejected, ends in a state
	// other than done, or produces a state that fails verification.
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Rows      []Row  `json:"rows"`
	Spans     []Span `json:"-"`
}

// Options selects how a workload runs.
type Options struct {
	// Seed drives the bench-side input generation: the position jitter
	// of the sheet inputs and the blob seeds of the fleet. The solver
	// only ever sees the generated System or JobSpec.
	Seed int64
	// Seconds is the length of the timed part of an untraced run:
	// repetitions (or fleet jobs) continue until it has elapsed.
	Seconds float64
	// MinReps is the least number of timed repetitions of a solver
	// workload whatever Seconds says (default 3); MinJobs likewise for
	// the fleet (default 50, so that ten samples lie beyond p80).
	MinReps, MinJobs int
	// Trace selects the traced per-layer run instead of the untraced
	// end-to-end run.
	Trace bool
	// ProbeBudget is how long one timing probe of the traced run
	// repeats its call before reporting the median (default 150 ms).
	ProbeBudget time.Duration
	// TmpRoot is the directory under which daemon and checkpoint state
	// is created (one fresh directory per run, removed on return).
	// Empty selects the system default.
	TmpRoot string
}

func (o Options) withDefaults() Options {
	if o.MinReps < 1 {
		o.MinReps = 3
	}
	if o.MinJobs < 1 {
		o.MinJobs = 50
	}
	if o.ProbeBudget <= 0 {
		o.ProbeBudget = 150 * time.Millisecond
	}
	return o
}

// setupRounds is how many times a run repeats its whole set-up; the
// median is reported as setup_s.
const setupRounds = 3

// run is the state of one workload run: the result being assembled,
// the tracer (nil when untraced) and the run's private temp directory.
type run struct {
	w   Workload
	o   Options
	res *Result
	tr  *Tracer
	tmp string
}

// Run executes one workload once — untraced or traced, as o says — and
// verifies its outputs. The returned error reports a harness failure
// (no temp directory); solver and daemon errors are counted in
// Result.Failed instead and never abort the run.
func Run(w Workload, o Options) (*Result, error) {
	o = o.withDefaults()
	if o.TmpRoot != "" {
		if err := os.MkdirAll(o.TmpRoot, 0o755); err != nil {
			return nil, fmt.Errorf("bench: temp root: %w", err)
		}
	}
	tmp, err := os.MkdirTemp(o.TmpRoot, "bench-"+w.Name+"-")
	if err != nil {
		return nil, fmt.Errorf("bench: temp dir: %w", err)
	}
	defer os.RemoveAll(tmp)

	r := &run{w: w, o: o, tmp: tmp, res: &Result{Workload: w.Name, Trace: o.Trace, Correct: true}}
	if o.Trace {
		r.tr = NewTracer(w.Name)
	}
	root := r.tr.Begin(-1, "workload")
	switch {
	case w.Fleet && o.Trace:
		r.fleetTraced(root)
	case w.Fleet:
		r.fleetEndToEnd()
	case o.Trace:
		r.solverTraced(root)
	default:
		r.solverEndToEnd()
	}
	r.tr.End(root)
	r.res.Spans = r.tr.Spans()

	frac := 0.0
	if r.res.Attempted > 0 {
		frac = float64(r.res.Failed) / float64(r.res.Attempted)
	}
	r.row(KindInfo, "failed_frac", frac, "ratio")
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	return r.res, nil
}

// subdir returns a fresh directory under the run's temp directory.
func (r *run) subdir(name string) string {
	dir, err := os.MkdirTemp(r.tmp, name+"-")
	if err != nil {
		// The parent was created by this process a moment ago; losing
		// it mid-run is not a state the harness can measure through.
		panic(fmt.Sprintf("bench: temp subdir: %v", err))
	}
	return dir
}

// problem records a failed verification check.
func (r *run) problem(format string, args ...any) {
	r.res.Correct = false
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// note records a remark for the reader that is not a failure.
func (r *run) note(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and, when err is non-nil, its
// failure.
func (r *run) op(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.res.Problems = append(r.res.Problems, err.Error())
	}
}

// row appends a row and returns it.
func (r *run) row(kind, metric string, value float64, unit string) *Row {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.problem("%s is not finite", metric)
		value = 0
	}
	r.res.Rows = append(r.res.Rows, Row{Workload: r.w.Name, Metric: metric, Value: value, Unit: unit, Kind: kind})
	return &r.res.Rows[len(r.res.Rows)-1]
}

// quantileRow appends a row reporting the pct-th percentile of samples
// (50: the median), scaled into the row's unit, with the sample count,
// the range and the percentile's estimated run-to-run spread.
func (r *run) quantileRow(kind, metric string, samples []float64, pct int, scale float64, unit string) {
	q := Median(samples)
	if pct != 50 {
		q, _ = Percentile(samples, float64(pct)/100)
	}
	row := r.row(kind, metric, q*scale, unit)
	lo, hi := minMax(samples)
	row.N, row.Min, row.Max, row.Spread = len(samples), lo*scale, hi*scale, QuantileSpread(samples, pct)
}

// layer appends a per-layer row.
func (r *run) layer(metric string, value float64, unit string) {
	r.row(KindPerLayer, metric, value, unit)
}

// timeIt runs fn once and returns its wall-clock seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// measured runs fn after a garbage collection and returns its
// wall-clock seconds and the bytes it allocated (process-wide
// TotalAlloc delta: the solver's ranks are goroutines of this process).
func measured(fn func()) (seconds, allocBytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	seconds = timeIt(fn)
	runtime.ReadMemStats(&after)
	return seconds, float64(after.TotalAlloc - before.TotalAlloc)
}

// mallocs runs fn and returns the number of heap objects it allocated
// (process-wide).
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// StateHash is the FNV-1a fingerprint of a system's σ and packed
// state bits: two final states are bitwise identical exactly when
// their hashes match.
func StateHash(sys *nbody.System) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range append([]float64{sys.Sigma}, sys.PackNew()...) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
