// Scalingstudy reproduces the Fig. 5 strong-scaling analysis of the
// parallel tree code: it executes the real hashed-oct-tree on
// in-process ranks under virtual Blue Gene/P clocks, fits the
// branch-node growth law, and extrapolates the cost structure to the
// paper's particle counts (up to 2048 million) and core counts (up to
// 262,144) — showing where spatial strong scaling saturates and why
// (the branch-node exchange starts to dominate).
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/hot"
)

func main() {
	cfg := experiments.DefaultFig5()

	fmt.Println("Executing the parallel tree (Coulomb discipline) on in-process ranks...")
	points := experiments.Fig5Executed(cfg.Fig5ExecConfig, hot.BranchRing)
	tb, ptb := experiments.Fig5Tables(cfg.Fig5ExecConfig, points)
	tb.Fprint(os.Stdout)
	ptb.Fprint(os.Stdout)

	fit := experiments.FitBranches(points)
	fmt.Printf("branch-node growth fit: B(P) = %.2f * P^%.2f\n\n", fit.A, fit.Exp)

	model, tbm := experiments.Fig5Model(cfg, fit)
	tbm.Fprint(os.Stdout)

	for _, n := range cfg.NModel {
		fmt.Printf("N = %10.3g saturates at ~%d cores\n",
			n, experiments.SaturationCores(model, n))
	}
	fmt.Println("\nSmall problems saturate orders of magnitude earlier than large")
	fmt.Println("ones — the strong-scaling wall that motivates adding time")
	fmt.Println("parallelism (Sections I and IV-B of the paper).")
}
