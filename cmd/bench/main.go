// Command bench is the repository's one benchmark (internal/bench).
//
//	go run ./cmd/bench -seed 1 -out r1.json      all five workloads, untraced then traced
//	go run ./cmd/bench -workload st2x2_sheet     one workload
//	go run ./cmd/bench -list                     workloads and metric names with units
//	go run ./cmd/bench -compare r1.json -in r2.json
//	go run ./cmd/bench -compare r1.json          run, then compare the fresh record with r1.json
//
// The benchmark driver calls it as
//
//	go run ./cmd/bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// of that workload. Run it from the repository root: BENCHMARK.json is
// looked up from the working directory, and daemon and checkpoint state
// lives under .bench_build/ there.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
)

// tmpRoot holds the daemon and checkpoint state of a run, inside the
// working directory so that a run writes nowhere else.
var tmpRoot = filepath.Join(".bench_build", "tmp")

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Int64("seed", 1, "input seed: sheet jitter and fleet blob seeds")
		seconds  = flag.Float64("seconds", 0, "timed seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace    = flag.String("trace", "both", "0: untraced end-to-end run, 1: traced per-layer run, both: one after the other")
		out      = flag.String("out", "", "write the record (rows + host metadata) to this file; never overwrites without -force")
		force    = flag.Bool("force", false, "let -out replace an existing file")
		traceOut = flag.String("trace-out", "", "write the spans of the traced runs to this file")
		compare  = flag.String("compare", "", "old record to compare against (the new one is -in, or a fresh run)")
		in       = flag.String("in", "", "new record for -compare; no workload is run")
		list     = flag.Bool("list", false, "print workloads and metric names with units, then exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	manifest, err := bench.LoadManifest(".")
	if err != nil {
		return err
	}
	if *list {
		printList(manifest)
		return nil
	}
	if *out != "" && !*force {
		// Refuse before minutes of measurement, not after.
		if _, err := os.Stat(*out); err == nil {
			return fmt.Errorf("%s exists; records are never overwritten (pass -force to replace it)", *out)
		}
	}

	var rec *bench.Record
	if *in != "" {
		if *compare == "" {
			return fmt.Errorf("-in needs -compare")
		}
		if rec, err = bench.ReadRecord(*in); err != nil {
			return err
		}
	} else {
		if rec, err = measure(manifest, *workload, *seed, *seconds, *trace); err != nil {
			return err
		}
		if *traceOut != "" {
			if err := bench.WriteSpans(*traceOut, rec.Results); err != nil {
				return err
			}
		}
		if *out != "" {
			rec.Host = bench.DescribeHost(tmpRoot)
			if err := bench.WriteRecord(*out, rec, *force); err != nil {
				return err
			}
		}
	}

	failed := false
	for _, res := range rec.Results {
		failed = failed || !res.Correct
	}
	if *compare != "" {
		old, err := bench.ReadRecord(*compare)
		if err != nil {
			return err
		}
		if bad := printComparison(manifest, old, rec); bad {
			return fmt.Errorf("regression against %s", *compare)
		}
	}
	if failed {
		return fmt.Errorf("verification failed")
	}
	return nil
}

// measure runs the selected workloads and prints their rows; after
// each run it prints the driver's JSON line, so that with one workload
// and one kind of run selected that line is the last of the output.
func measure(m *bench.Manifest, only string, seed int64, seconds float64, trace string) (*bench.Record, error) {
	var modes []bool
	switch trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", trace)
	}
	workloads := bench.Workloads()
	if only != "" {
		w, err := bench.ByName(only)
		if err != nil {
			return nil, err
		}
		workloads = []bench.Workload{w}
	}
	if seconds <= 0 {
		seconds = float64(m.RunSeconds)
	}
	rec := &bench.Record{Schema: bench.RecordSchema, Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		for _, traced := range modes {
			res, err := bench.Run(w, bench.Options{Seed: seed, Seconds: seconds, Trace: traced, TmpRoot: tmpRoot})
			if err != nil {
				return nil, err
			}
			bench.PrintRows(os.Stdout, res)
			line, err := bench.DriverLine(res)
			if err != nil {
				return nil, err
			}
			fmt.Printf("%s\n", line)
			rec.Results = append(rec.Results, res)
		}
	}
	return rec, nil
}

func printList(m *bench.Manifest) {
	fmt.Println("workloads:")
	for _, w := range m.Workloads {
		fmt.Printf("  %-14s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (unit, better, bound):")
	for _, d := range m.EndToEnd {
		fmt.Printf("  %-12s %-6s %-6s %g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer metrics (unit, better):")
	for _, d := range m.PerLayer {
		fmt.Printf("  %-36s %-6s %s\n", d.Name, d.Unit, d.Better)
	}
}

// printComparison prints one line per workload × end-to-end metric and
// reports whether anything regressed or failed more often.
func printComparison(m *bench.Manifest, old, new *bench.Record) (bad bool) {
	rows, failedRose := bench.Compare(m, old, new)
	fmt.Printf("%-14s %-11s %12s %12s %-5s %9s  %s\n", "workload", "metric", "old", "new", "unit", "new/old", "verdict (bound)")
	for _, c := range rows {
		fmt.Printf("%-14s %-11s %12.6g %12.6g %-5s %9.4f  %s (%g)\n",
			c.Workload, c.Metric, c.Old, c.New, c.Unit, c.Ratio, c.Verdict, c.Bound)
		bad = bad || c.Verdict == bench.VerdictRegressed
	}
	if failedRose {
		fmt.Println("failed_frac rose")
	}
	return bad || failedRose
}
