package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Manifest is BENCHMARK.json: the contract between this benchmark and
// whatever drives it. The file is the one place the regression bounds
// live; the code only emits the names it lists (a test holds the two
// together).
type Manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []MetricDef   `json:"per_layer"`
}

// WorkloadDef names one workload and says why it exists.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDef declares one metric: its unit, which direction is better,
// and — end-to-end metrics only — the share of the old value by which
// it may worsen before a change counts as a regression.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// ManifestName is the manifest's file name at the repository root.
const ManifestName = "BENCHMARK.json"

// LoadManifest reads BENCHMARK.json from dir or the nearest parent
// directory that has one.
func LoadManifest(dir string) (*Manifest, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("bench: manifest: %w", err)
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err == nil {
			var m Manifest
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, fmt.Errorf("bench: %s: %w", ManifestName, err)
			}
			return &m, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("bench: manifest: %w", err)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("bench: no %s in this directory or above it", ManifestName)
		}
		dir = parent
	}
}

// Host describes where a record was measured. No number in a record
// means anything without it.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	// TmpFS is the filesystem holding the daemon and checkpoint state:
	// the fsync timings are that filesystem's.
	TmpFS string `json:"tmp_fs"`
}

// DescribeHost gathers the host metadata; tmpDir is where the run's
// state directories live. Whatever cannot be determined reads
// "unknown".
func DescribeHost(tmpDir string) Host {
	h := Host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "unknown", TmpFS: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if abs, err := filepath.Abs(tmpDir); err == nil {
		h.TmpFS = mountType(abs)
	}
	return h
}

// mountType returns the filesystem type of the mount holding path, by
// longest mount-point prefix in /proc/mounts.
func mountType(path string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		under := mp == "/" || path == mp || strings.HasPrefix(path, mp+"/")
		if under && len(mp) >= len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// Record is the file -out writes: every row of every workload run,
// with the host it was measured on.
type Record struct {
	Schema  string    `json:"schema"`
	Host    Host      `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*Result `json:"results"`
}

// RecordSchema names the layout of Record.
const RecordSchema = "nbody-bench/1"

// WriteRecord writes rec to path once, atomically (temp file, fsync,
// rename). An existing file is never replaced unless force is set: a
// record is written once per measurement and old ones are history.
func WriteRecord(path string, rec *Record, force bool) error {
	if !force {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("bench: %s exists; records are never overwritten (pass -force to replace it)", path)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode record: %w", err)
	}
	return writeAtomic(path, append(data, '\n'))
}

// writeAtomic writes data to a temp file beside path, syncs it and
// renames it into place.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return nil
}

// ReadRecord reads a record written by WriteRecord.
func ReadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rec.Schema != RecordSchema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, rec.Schema, RecordSchema)
	}
	return &rec, nil
}

// WriteSpans writes the spans of the traced runs, each with its self
// time, as one JSON array.
func WriteSpans(path string, results []*Result) error {
	type spanOut struct {
		Span
		Self float64 `json:"self_s"`
	}
	out := []spanOut{}
	for _, res := range results {
		self := SelfTimes(res.Spans)
		for _, sp := range res.Spans {
			out = append(out, spanOut{Span: sp, Self: self[sp.ID]})
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode spans: %w", err)
	}
	return writeAtomic(path, append(data, '\n'))
}

// PrintRows prints one line per row — `workload metric value unit` —
// with the sample count and range beside a median or percentile, then
// the notes and problems of the run.
func PrintRows(w io.Writer, res *Result) {
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%s %s %.6g %s", row.Workload, row.Metric, row.Value, row.Unit)
		if row.N > 0 {
			fmt.Fprintf(w, "  (n=%d min=%.6g max=%.6g)", row.N, row.Min, row.Max)
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# %s: %s\n", res.Workload, n)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "# %s: FAILED: %s\n", res.Workload, p)
	}
}

// DriverLine returns the one-line JSON object the benchmark driver
// reads: the declared metrics of this run's kind (end-to-end for an
// untraced run, per-layer for a traced one), each value with all its
// digits.
func DriverLine(res *Result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	kind := KindEndToEnd
	if res.Trace {
		kind = KindPerLayer
	}
	metrics := map[string]value{}
	for _, row := range res.Rows {
		if row.Kind == kind {
			metrics[row.Metric] = value{row.Value, row.Unit}
		}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, attempted, res.Failed, metrics})
}

// Verdicts of Compare.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// Comparison is one workload × end-to-end metric pairing of two
// records. Ratio is New/Old — its base is the old record.
type Comparison struct {
	Workload, Metric string
	Unit             string
	Old, New, Ratio  float64
	Bound            float64
	Verdict          string
}

// Compare holds every end-to-end metric of every workload present in
// both records against the manifest's bounds. A pairing is unresolved
// when either record's own spread is wider than the bound — the
// difference, whatever its sign, is then not established; otherwise it
// is regressed when the new value is worse than the old by more than
// the bound, and ok if not. failedRose reports whether failed_frac
// rose on any workload.
func Compare(m *Manifest, old, new *Record) (rows []Comparison, failedRose bool) {
	find := func(rec *Record, workload, metric string) *Row {
		for _, res := range rec.Results {
			if res.Workload != workload {
				continue
			}
			for i := range res.Rows {
				if res.Rows[i].Metric == metric {
					return &res.Rows[i]
				}
			}
		}
		return nil
	}
	for _, w := range m.Workloads {
		for _, def := range m.EndToEnd {
			o, n := find(old, w.Name, def.Name), find(new, w.Name, def.Name)
			if o == nil || n == nil {
				continue
			}
			c := Comparison{Workload: w.Name, Metric: def.Name, Unit: def.Unit,
				Old: o.Value, New: n.Value, Ratio: n.Value / o.Value, Bound: def.Bound, Verdict: VerdictOK}
			worse := c.Ratio - 1
			if def.Better == "higher" {
				worse = 1 - c.Ratio
			}
			switch {
			case o.Spread > def.Bound || n.Spread > def.Bound:
				c.Verdict = VerdictUnresolved
			case worse > def.Bound:
				c.Verdict = VerdictRegressed
			}
			rows = append(rows, c)
		}
		if o, n := find(old, w.Name, "failed_frac"), find(new, w.Name, "failed_frac"); o != nil && n != nil && n.Value > o.Value {
			failedRose = true
		}
	}
	return rows, failedRose
}
