// Command experiments regenerates the tables and figures of the
// paper's evaluation section (see DESIGN.md for the experiment index
// and EXPERIMENTS.md for the paper-vs-measured record).
//
// Usage:
//
//	experiments                 # run everything (scaled defaults)
//	experiments -fig 7a         # a single figure: 1, 5, 7a, 7b, 8
//	experiments -exp theta-ratio|residuals|speedup-model|phases
//	experiments -exp fig5-xt    # joint space-time scaling study on Fig. 5's executed runs
//	experiments -exp fig5-xt -xt-out new.json     # also write the record; an existing file is never replaced
//	experiments -balance -exp phases              # work-weighted domain decomposition
//	experiments -list           # validate -fig/-exp and the flags, list the known names, run nothing
//	experiments -threads 4 -exp phases            # per-rank worker pool (steals visible)
//	experiments -csv out/       # additionally write CSV files
//	experiments -json out/      # write telemetry snapshots as JSON
//	experiments -pproflabels -cpuprofile cpu.out  # label profile samples by phase
//
// A flag the selection would not read (-xt-out without fig5-xt,
// -threads or -balance without phases, -paper without 7a, 7b or 8) is
// a usage error, exit status 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hot"
	"repro/internal/pfasst"
	"repro/internal/telemetry"
)

// flagReaders names the experiments that read each flag only some of
// them read. Setting one for a selection that holds none of its readers
// would change nothing, so it is rejected.
var flagReaders = map[string][]string{
	"xt-out":  {"fig5-xt"},
	"threads": {"phases"},
	"balance": {"phases"},
	"paper":   {"7a", "7b", "8"},
}

// selection reports whether the -fig/-exp pair selects the named
// figure or experiment; both empty selects everything.
func selection(fig, exp string) func(name string) bool {
	return func(name string) bool {
		return fig == "" && exp == "" || strings.EqualFold(fig, name) || strings.EqualFold(exp, name)
	}
}

// ignoredFlag returns the first of the set flags that no selected
// experiment reads, or "".
func ignoredFlag(set []string, want func(name string) bool) string {
	for _, name := range set {
		if readers, ok := flagReaders[name]; ok && !slices.ContainsFunc(readers, want) {
			return name
		}
	}
	return ""
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 1, 5, 7a, 7b, 8 (empty = all)")
		exp        = flag.String("exp", "", "extra experiment: theta-ratio, residuals, speedup-model, ablations, phases, fig5-xt")
		threads    = flag.Int("threads", 0, "traversal worker goroutines per rank (>1 = work-stealing scheduler; phases experiment)")
		balance    = flag.Bool("balance", false, "work-weighted domain decomposition (phases experiment)")
		list       = flag.Bool("list", false, "validate -fig/-exp and the flags, list the known names, and exit without running")
		xtOut      = flag.String("xt-out", "", "write the fig5-xt record to this new file (empty = tables only; an existing file is never replaced)")
		csvDir     = flag.String("csv", "", "directory for CSV output")
		jsonDir    = flag.String("json", "", "directory for telemetry snapshot JSON output")
		paper      = flag.Bool("paper", false, "use the paper's exact sizes where implemented (very slow)")
		labels     = flag.Bool("pproflabels", false, "label profile samples with telemetry phase names")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	// Known names: every -fig/-exp value must be one of these. Unknown
	// names and ignored flags are configuration errors, not silent
	// no-ops; -list performs only this validation (the CI docs gate
	// appends it to every command the docs quote to keep them honest).
	figs := []string{"1", "5", "7a", "7b", "8"}
	exps := []string{"theta-ratio", "residuals", "speedup-model", "ablations",
		"phases", "fig5-xt"}
	known := func(name string, set []string) bool {
		return slices.ContainsFunc(set, func(s string) bool { return strings.EqualFold(name, s) })
	}
	if *fig != "" && !known(*fig, figs) {
		log.Fatalf("unknown -fig %q (known: %s)", *fig, strings.Join(figs, ", "))
	}
	if *exp != "" && !known(*exp, exps) {
		log.Fatalf("unknown -exp %q (known: %s)", *exp, strings.Join(exps, ", "))
	}
	want := selection(*fig, *exp)
	var set []string
	flag.Visit(func(fl *flag.Flag) { set = append(set, fl.Name) })
	if name := ignoredFlag(set, want); name != "" {
		fmt.Fprintf(os.Stderr, "experiments: -%s has no effect here: it is read only by %s\n",
			name, strings.Join(flagReaders[name], ", "))
		flag.Usage()
		os.Exit(2)
	}
	if *list {
		fmt.Printf("figures: %s\n", strings.Join(figs, ", "))
		fmt.Printf("experiments: %s\n", strings.Join(exps, ", "))
		return
	}
	// Fail before the study runs, not after it; WriteJSON's exclusive
	// create is what actually protects the file.
	if *xtOut != "" {
		if _, err := os.Stat(*xtOut); err == nil {
			log.Fatalf("-xt-out %s exists; records are never overwritten", *xtOut)
		}
	}

	telemetry.SetPprofLabels(*labels)
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	emitJSON := func(name string, s telemetry.Snapshot) {
		if *jsonDir == "" {
			return
		}
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
		fpath := filepath.Join(*jsonDir, name+".json")
		jf, err := os.Create(fpath)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.WriteJSON(jf); err != nil {
			log.Fatal(err)
		}
		if err := jf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", fpath)
	}

	emit := func(name string, tb *experiments.Table) {
		tb.Fprint(os.Stdout)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				log.Fatal(err)
			}
			fpath := filepath.Join(*csvDir, name+".csv")
			f, err := os.Create(fpath)
			if err != nil {
				log.Fatal(err)
			}
			tb.CSV(f)
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n\n", fpath)
		}
	}

	if want("1") {
		_, tb := experiments.Fig1VortexSheet(experiments.DefaultFig1())
		emit("fig1", tb)
	}
	// Fig. 5 and fig5-xt render the same executed Coulomb runs: the ring
	// points are Fig. 5's rows, fig5-xt adds the batched exchange.
	var runs []experiments.Fig5ExecPoint
	if want("5") || want("fig5-xt") {
		modes := []hot.BranchMode{hot.BranchRing}
		if want("fig5-xt") {
			modes = append(modes, hot.BranchBatched)
		}
		runs = experiments.Fig5Executed(experiments.DefaultFig5Exec(), modes...)
	}
	if want("5") {
		cfg := experiments.DefaultFig5()
		ring := experiments.ModePoints(runs, hot.BranchRing)
		tb, ptb := experiments.Fig5Tables(cfg.Fig5ExecConfig, ring)
		emit("fig5_executed", tb)
		emit("fig5_phases", ptb)
		if len(ring) > 0 {
			emitJSON("fig5_telemetry", ring[len(ring)-1].Telemetry)
		}
		_, tbm := experiments.Fig5Model(cfg, experiments.FitBranches(ring))
		emit("fig5_model", tbm)
	}
	if want("phases") {
		pcfg := experiments.DefaultPhases()
		pcfg.Threads = *threads
		pcfg.Balance = *balance
		snap, tb := experiments.SpaceTimePhases(pcfg)
		emit("spacetime_phases", tb)
		emitJSON("spacetime_phases", snap)
	}
	// fig5-xt: the joint space-time scaling study — the executed runs per
	// allgather, the executed PS×PT grid, and the modeled extrapolation
	// to 262,144 cores (see SCALING.md). BENCH_PR7.json is the frozen
	// record of one such run.
	if want("fig5-xt") {
		res, tbs := experiments.BenchPR7(experiments.DefaultFig5XT(), runs)
		names := []string{"fig5xt_branch", "fig5xt_grid", "fig5xt_model", "fig5xt_crossover"}
		for i, tb := range tbs {
			emit(names[i], tb)
		}
		if *xtOut != "" {
			if err := res.WriteJSON(*xtOut); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n\n", *xtOut)
		}
	}
	fig7cfg := experiments.DefaultFig7()
	if *paper {
		fig7cfg = experiments.PaperFig7()
	}
	if want("7a") {
		_, tb := experiments.Fig7aSDCConvergence(fig7cfg)
		emit("fig7a", tb)
	}
	if want("7b") {
		_, _, tb := experiments.Fig7bPFASSTConvergence(fig7cfg)
		emit("fig7b", tb)
	}
	if want("theta-ratio") {
		_, tb := experiments.ThetaCoarseningRatio(20000, 0.3, 0.6)
		emit("theta_ratio", tb)
	}
	if want("residuals") {
		_, tb := experiments.PFASSTResiduals(experiments.DefaultResiduals())
		emit("residuals", tb)
	}
	if want("8") {
		fig8 := []experiments.Fig8Config{
			experiments.DefaultFig8Small(), experiments.DefaultFig8Large(),
		}
		if *paper {
			fig8 = []experiments.Fig8Config{experiments.PaperFig8Small()}
		}
		for _, cfg := range fig8 {
			_, tb := experiments.Fig8Speedup(cfg)
			emit("fig8_"+cfg.Name, tb)
		}
	}
	if want("ablations") {
		emit("ablation_dipole", experiments.AblationDipole(1000, 0.6))
		emit("ablation_stretching", experiments.AblationStretching(500, 3))
		emit("ablation_parareal", experiments.AblationPararealVsPFASST(128, 4))
		emit("ablation_leafcap", experiments.AblationLeafCap(2000, []int{1, 4, 8, 16, 32}))
	}
	if want("speedup-model") {
		alphaS, _ := experiments.MeasureAlpha(4000, 0.3, 0.6)
		tb := experiments.SpeedupModelTable(4, 2, 2, []float64{alphaS, 2.0 / (3.23 * 3)}, pfasst.Beta,
			[]int{1, 2, 4, 8, 16, 32, 64})
		emit("speedup_model", tb)
	}
}
