// Command experiments regenerates the tables and figures of the
// paper's evaluation section (see DESIGN.md for the experiment index
// and EXPERIMENTS.md for the paper-vs-measured record).
//
// Usage:
//
//	experiments                 # run everything (scaled defaults)
//	experiments -fig 7a         # a single figure: 1, 5, 7a, 7b, 8
//	experiments -exp theta-ratio|residuals|speedup-model|phases
//	experiments -exp fig5-xt    # joint space-time scaling study, tables only (not part of "all")
//	experiments -exp fig5-xt -xt-out new.json     # also write the record; an existing file is never replaced
//	experiments -balance -exp phases              # work-weighted domain decomposition
//	experiments -list           # validate -fig/-exp and list the known names, run nothing
//	experiments -traversal recursive -exp phases  # per-particle walk instead of the tile walk
//	experiments -threads 4 -exp phases            # per-rank worker pool (steals visible)
//	experiments -csv out/       # additionally write CSV files
//	experiments -json out/      # write telemetry snapshots as JSON
//	experiments -pproflabels -cpuprofile cpu.out  # label profile samples by phase
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/tree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 1, 5, 7a, 7b, 8 (empty = all)")
		exp        = flag.String("exp", "", "extra experiment: theta-ratio, residuals, speedup-model, ablations, phases, fig5-xt")
		traversal  = flag.String("traversal", "", `tree traversal mode: "list" (default) or "recursive"`)
		threads    = flag.Int("threads", 0, "traversal worker goroutines per rank (>1 = work-stealing scheduler; phases experiment)")
		balance    = flag.Bool("balance", false, "work-weighted domain decomposition (phases experiment)")
		list       = flag.Bool("list", false, "validate -fig/-exp, list the known names, and exit without running")
		xtOut      = flag.String("xt-out", "", "write the fig5-xt record to this new file (empty = tables only; an existing file is never replaced)")
		csvDir     = flag.String("csv", "", "directory for CSV output")
		jsonDir    = flag.String("json", "", "directory for telemetry snapshot JSON output")
		paper      = flag.Bool("paper", false, "use the paper's exact sizes where implemented (very slow)")
		labels     = flag.Bool("pproflabels", false, "label profile samples with telemetry phase names")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	trav, err := tree.ParseTraversal(*traversal)
	if err != nil {
		log.Fatal(err)
	}

	// Known names: every -fig/-exp value must be one of these. Unknown
	// names are configuration errors, not silent no-ops; -list performs
	// only this validation (the CI docs gate appends it to every command
	// the docs quote to keep them honest).
	figs := []string{"1", "5", "7a", "7b", "8"}
	exps := []string{"theta-ratio", "residuals", "speedup-model", "ablations",
		"phases", "fig5-xt"}
	known := func(name string, set []string) bool {
		for _, s := range set {
			if strings.EqualFold(name, s) {
				return true
			}
		}
		return false
	}
	if *fig != "" && !known(*fig, figs) {
		log.Fatalf("unknown -fig %q (known: %s)", *fig, strings.Join(figs, ", "))
	}
	if *exp != "" && !known(*exp, exps) {
		log.Fatalf("unknown -exp %q (known: %s)", *exp, strings.Join(exps, ", "))
	}
	if *list {
		fmt.Printf("figures: %s\n", strings.Join(figs, ", "))
		fmt.Printf("experiments: %s\n", strings.Join(exps, ", "))
		return
	}
	// Fail before the minutes-long study, not after it; WriteJSON's
	// exclusive create is what actually protects the file.
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

	all := *fig == "" && *exp == ""
	want := func(name string) bool {
		return all || strings.EqualFold(*fig, name) || strings.EqualFold(*exp, name)
	}

	if want("1") {
		_, tb := experiments.Fig1VortexSheet(experiments.DefaultFig1())
		emit("fig1", tb)
	}
	if want("5") {
		cfg := experiments.DefaultFig5()
		points, tb, ptb := experiments.Fig5Executed(cfg)
		emit("fig5_executed", tb)
		emit("fig5_phases", ptb)
		if len(points) > 0 {
			emitJSON("fig5_telemetry", points[len(points)-1].Telemetry)
		}
		fit := experiments.FitBranches(points)
		_, tbm := experiments.Fig5Model(cfg, fit)
		emit("fig5_model", tbm)
	}
	if want("phases") || all {
		pcfg := experiments.DefaultPhases()
		pcfg.Traversal = trav
		pcfg.Threads = *threads
		pcfg.Balance = *balance
		snap, tb := experiments.SpaceTimePhases(pcfg)
		emit("spacetime_phases", tb)
		emitJSON("spacetime_phases", snap)
	}
	// fig5-xt is opt-in only (minutes of wall time): the joint space-time
	// scaling study — the executed branch exchange per allgather, the executed
	// PS×PT grid, and the modeled extrapolation to 262,144 cores (see
	// SCALING.md). BENCH_PR7.json is the frozen record of one such run.
	if strings.EqualFold(*exp, "fig5-xt") {
		res, tbs := experiments.BenchPR7(experiments.DefaultFig5XT())
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
	if want("theta-ratio") || all {
		_, tb := experiments.ThetaCoarseningRatio(20000, 0.3, 0.6)
		emit("theta_ratio", tb)
	}
	if want("residuals") || all {
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
	if want("ablations") || all {
		emit("ablation_dipole", experiments.AblationDipole(1000, 0.6))
		emit("ablation_stretching", experiments.AblationStretching(500, 3))
		emit("ablation_parareal", experiments.AblationPararealVsPFASST(128, 4))
		emit("ablation_farfield", experiments.AblationFarFieldRefresh(1000, []int{1, 2, 4, 8}))
		emit("ablation_leafcap", experiments.AblationLeafCap(2000, []int{1, 4, 8, 16, 32}))
	}
	if want("speedup-model") || all {
		alphaS, _ := experiments.MeasureAlpha(4000, 0.3, 0.6)
		// β ≈ 2 covers Algorithm 1's per-iteration re-evaluations
		// (NUMERICS.md §6), matching the Fig. 8 theory curves.
		tb := experiments.SpeedupModelTable(4, 2, 2, []float64{alphaS, 2.0 / (3.23 * 3)}, 2.0,
			[]int{1, 2, 4, 8, 16, 32, 64})
		emit("speedup_model", tb)
	}
}
