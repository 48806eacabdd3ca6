package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/hot"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
)

// Fig5XTConfig parameterizes the joint space×time scaling study
// (BENCH_PR7.json): the Fig. 5 strong-scaling crossover of the spatial
// tree code — under the ring and the batched branch exchange — combined
// with the Fig. 8 time-parallel extension, extrapolated on the machine
// model to the paper's 262,144 Blue Gene/P cores.
//
// Three parts. The *executed branch* part is Fig. 5's executed runs
// (Fig5Executed) under both allgathers of the branch exchange: honest
// per-phase times, branch counts and the prefetch volume. The
// *executed grid* part runs the full space-time solver on small PS×PT
// grids at a fixed total rank count against the space-only SDC
// baseline. The *modeled* part prices Fig. 5's per-evaluation cost
// (modelEval) — calibrated by the executed branch-count fit and
// prefetch ratio — at the paper's particle and core counts.
type Fig5XTConfig struct {
	Fig5ExecConfig // the executed branch runs

	GridN     int   // particle count of the executed PS×PT grid
	GridRanks int   // total ranks of every executed grid point
	GridPTs   []int // PT values; PS = GridRanks/PT
	Steps     int   // time steps of the executed grid runs
	Dt        float64

	ThetaFine, ThetaCoarse   float64
	Iterations, CoarseSweeps int // PFASST(X, Y, PT)
	SerialSweeps             int // Ks of the SDC baseline (paper: 4)
	CoresPerRank             int // cores represented by one rank (paper: 4/node)

	NModel     float64 // modeled particle count (paper large setup: 4e6)
	ModelCores []int   // total modeled core counts
	ModelPTs   []int   // PT candidates at every modeled core count
	ModelSteps int     // modeled time horizon in steps
}

// DefaultFig5XT returns the scaled configuration recorded in
// BENCH_PR7.json.
func DefaultFig5XT() Fig5XTConfig {
	return Fig5XTConfig{
		Fig5ExecConfig: DefaultFig5Exec(),

		GridN:     2048,
		GridRanks: 16,
		GridPTs:   []int{1, 2, 4, 8},
		Steps:     8,
		Dt:        0.5,

		ThetaFine: 0.3, ThetaCoarse: 0.6,
		Iterations: 2, CoarseSweeps: 2, SerialSweeps: 4,
		CoresPerRank: 4,

		NModel:     4e6,
		ModelCores: []int{4096, 16384, 65536, 262144},
		ModelPTs:   []int{1, 2, 4, 8, 16, 32, 64},
		ModelSteps: 64,
	}
}

// Fig5XTBranchTable renders the executed runs of both exchange modes
// — the before/after record of the branch-exchange optimization.
func Fig5XTBranchTable(cfg Fig5ExecConfig, points []Fig5ExecPoint) *Table {
	tb := &Table{
		Title: "PR7 (executed) — branch exchange before/after, virtual BG/P clock",
		Header: []string{"ranks", "mode", "total(s)", "branch_xchg(s)",
			"traversal(s)", "branches", "prefetched"},
	}
	for _, p := range points {
		tb.AddRow(f("%d", p.Ranks), p.Mode, f("%.4f", p.VTTotal),
			f("%.4f", p.VTBranch), f("%.4f", p.VTTraverse),
			f("%d", p.TotalBranches), f("%d", p.Prefetched))
	}
	tb.AddNote("N=%d homogeneous neutral Coulomb cloud, theta=%g; results bitwise equal across modes", cfg.NExec, cfg.Theta)
	tb.AddNote("expected shape: batched turns the (P-1)-latency ring allgathers into ~log2(P) rounds")
	tb.AddNote("and walks the prefetch set in their overlap window; both modes ship the same MAC-pruned cells")
	return tb
}

// prefetchRatio calibrates the modeled prefetch volume: cells shipped
// by the batched exchange per branch node, from the executed runs.
func prefetchRatio(points []Fig5ExecPoint) float64 {
	var cells, branches float64
	for _, p := range ModePoints(points, hot.BranchBatched) {
		if p.Ranks > 1 {
			cells += float64(p.Prefetched)
			branches += float64(p.TotalBranches)
		}
	}
	if branches == 0 {
		return 1
	}
	return cells / branches
}

// XTGridPoint is one executed PS×PT sample at a fixed total rank
// count: the modeled wall-clock time of the full space-time solver
// (PT > 1) or the space-only SDC baseline (PT = 1), per exchange mode.
type XTGridPoint struct {
	PT                 int     `json:"pt"`
	PS                 int     `json:"ps"`
	Ranks              int     `json:"ranks"`
	Mode               string  `json:"mode"`
	VTTotal            float64 `json:"vt_total_s"`
	SpeedupVsSpaceOnly float64 `json:"speedup_vs_space_only"`
}

// Fig5XTGrid runs the executed PS×PT grid: every PT divides the fixed
// total rank budget, PT = 1 is the time-serial SDC(Ks) baseline on all
// ranks, and each point runs once per branch exchange mode.
func Fig5XTGrid(cfg Fig5XTConfig) ([]XTGridPoint, *Table) {
	full := particle.SphericalVortexSheet(particle.ScaledSheet(cfg.GridN))
	t1 := float64(cfg.Steps) * cfg.Dt

	var points []XTGridPoint
	spaceOnly := map[string]float64{}
	for _, pt := range cfg.GridPTs {
		ps := cfg.GridRanks / pt
		for _, mode := range exchanges {
			ccfg := core.Default(pt, ps)
			ccfg.ThetaFine, ccfg.ThetaCoarse = cfg.ThetaFine, cfg.ThetaCoarse
			ccfg.Iterations, ccfg.CoarseSweeps = cfg.Iterations, cfg.CoarseSweeps
			ccfg.Branch = mode
			var vt float64
			if pt == 1 {
				vt = modeledSerialSDC(ccfg, full, t1, cfg.Steps, cfg.SerialSweeps)
			} else {
				vt, _ = modeledSpaceTime(ccfg, full, t1, cfg.Steps)
			}
			gp := XTGridPoint{PT: pt, PS: ps, Ranks: pt * ps, Mode: mode.String(), VTTotal: vt}
			if pt == 1 {
				spaceOnly[gp.Mode] = vt
			}
			if base := spaceOnly[gp.Mode]; base > 0 {
				gp.SpeedupVsSpaceOnly = base / vt
			}
			points = append(points, gp)
		}
	}

	tb := &Table{
		Title:  f("PR7 (executed) — PS×PT grid at %d ranks, virtual BG/P clock", cfg.GridRanks),
		Header: []string{"PT", "PS", "mode", "total(s)", "speedup vs PT=1"},
	}
	for _, p := range points {
		tb.AddRow(f("%d", p.PT), f("%d", p.PS), p.Mode,
			f("%.4f", p.VTTotal), f("%.2f", p.SpeedupVsSpaceOnly))
	}
	tb.AddNote("N=%d spherical vortex sheet, %d steps of dt=%g; PT=1 is SDC(%d) on all ranks",
		cfg.GridN, cfg.Steps, cfg.Dt, cfg.SerialSweeps)
	tb.AddNote("PFASST(%d,%d,PT) on the rest of the grid; same total rank budget per row",
		cfg.Iterations, cfg.CoarseSweeps)
	return points, tb
}

// XTModelPoint is one modeled space×time sample. The per-phase columns
// are full-horizon totals (per-sweep phase costs scaled by the sweep
// count the PFASST iteration actually pays), so they sum — with the
// PFASST communication — to TTotal.
type XTModelPoint struct {
	Cores int     `json:"cores"`
	PT    int     `json:"pt"`
	PS    int     `json:"ps_ranks"`
	Mode  string  `json:"mode"`
	NLoc  float64 `json:"nloc"`

	TSort       float64 `json:"t_sort_s"`
	TBuild      float64 `json:"t_build_s"`
	TBranch     float64 `json:"t_branch_s"`
	TEval       float64 `json:"t_eval_s"`
	TPfasstComm float64 `json:"t_pfasst_comm_s"`
	TTotal      float64 `json:"t_total_s"`
}

// XTCrossover summarizes one modeled core count and exchange mode: the
// space-only time, the best mixed PS×PT time, and their ratio — the
// Fig. 5 × Fig. 8 crossover claim in one row.
type XTCrossover struct {
	Cores      int     `json:"cores"`
	Mode       string  `json:"mode"`
	TSpaceOnly float64 `json:"t_space_only_s"`
	BestPT     int     `json:"best_pt"`
	BestPS     int     `json:"best_ps_ranks"`
	TBest      float64 `json:"t_best_s"`
	Speedup    float64 `json:"speedup"`
}

// Fig5XTModel extrapolates the joint cost structure to the paper's
// scale. Per (cores, PT, mode) it prices one fine evaluation on
// p = cores/(PT·CoresPerRank) spatial ranks with Fig. 5's modelEval —
// vortex interactions at θ_fine, B(p) from the executed power-law fit
// — and scales it by the sweeps the horizon pays. The prefetch volume
// (pref cells per branch in the executed runs) is recorded for
// calibration and charged to neither exchange, as Fig. 5 never charged
// it. The space-only baseline pays Ks sweeps per step; PFASST(X, Y,
// PT) divides the sweeps by the Eq. 24 speedup S(PT; α, β) and adds its
// own communication — per block, X neighbor sends of the
// 48-byte-per-particle state plus a ⌈log2 PT⌉-round block-end
// broadcast.
func Fig5XTModel(cfg Fig5XTConfig, fit BranchFit, pref, alpha float64) ([]XTModelPoint, []XTCrossover, *Table, *Table) {
	tm := mpi.BlueGeneP()
	cm := machine.BlueGeneP()
	n := cfg.NModel
	nL := float64(cfg.CoarseSweeps)

	var points []XTModelPoint
	var crossovers []XTCrossover
	for _, cores := range cfg.ModelCores {
		best := map[string]*XTCrossover{}
		for _, pt := range cfg.ModelPTs {
			ranks := cores / cfg.CoresPerRank
			if pt > ranks || ranks%pt != 0 {
				continue
			}
			p := float64(ranks / pt)
			nloc := n / p
			for _, mode := range exchanges {
				e := modelEval(n, p, fit.branches(p), cm.VortexInteraction, cfg.ThetaFine, mode)

				// Sweeps the horizon pays: the SDC(Ks) baseline runs
				// Ks per step; PFASST divides by S(PT) of Eq. 24.
				sweeps := float64(cfg.ModelSteps * cfg.SerialSweeps)
				var comm float64
				if pt > 1 {
					s := pfasst.TwoLevelSpeedup(pt, cfg.SerialSweeps, cfg.Iterations, nL, alpha, pfasst.Beta)
					sweeps /= s
					blocks := float64(cfg.ModelSteps / pt)
					perExchange := tm.Latency + 48*nloc*tm.BytePeriod
					comm = blocks * (float64(cfg.Iterations) + math.Ceil(math.Log2(float64(pt)))) * perExchange
				}
				mp := XTModelPoint{
					Cores: cores, PT: pt, PS: int(p), Mode: mode.String(), NLoc: nloc,
					TSort:       sweeps * e.sort,
					TBuild:      sweeps * e.build,
					TBranch:     sweeps * e.branch,
					TEval:       sweeps * e.eval,
					TPfasstComm: comm,
				}
				mp.TTotal = mp.TSort + mp.TBuild + mp.TBranch + mp.TEval + mp.TPfasstComm
				points = append(points, mp)

				c := best[mp.Mode]
				if c == nil {
					c = &XTCrossover{Cores: cores, Mode: mp.Mode}
					best[mp.Mode] = c
				}
				if pt == 1 {
					c.TSpaceOnly = mp.TTotal
				} else if c.BestPT == 0 || mp.TTotal < c.TBest {
					c.BestPT, c.BestPS, c.TBest = pt, int(p), mp.TTotal
				}
			}
		}
		for _, mode := range exchanges {
			c := best[mode.String()]
			if c == nil || c.BestPT == 0 {
				continue
			}
			c.Speedup = c.TSpaceOnly / c.TBest
			crossovers = append(crossovers, *c)
		}
	}

	tb := &Table{
		Title: "PR7 (modeled) — joint space×time scaling to JUGENE scale",
		Header: []string{"cores", "PT", "PS", "mode", "total(s)", "eval(s)",
			"branch_xchg(s)", "sort(s)", "pfasst_comm(s)"},
	}
	for _, p := range points {
		tb.AddRow(f("%d", p.Cores), f("%d", p.PT), f("%d", p.PS), p.Mode,
			f("%.4g", p.TTotal), f("%.4g", p.TEval), f("%.4g", p.TBranch),
			f("%.4g", p.TSort), f("%.4g", p.TPfasstComm))
	}
	tb.AddNote("N=%.3g over %d steps; branch fit B(P) = %.2f * P^%.2f, prefetch %.1f cells/branch",
		n, cfg.ModelSteps, fit.A, fit.Exp, pref)
	tb.AddNote("PT=1 pays Ks=%d sweeps/step; PT>1 divides compute by Eq. 24 S(PT; a=%.3f, b=%.1f)",
		cfg.SerialSweeps, alpha, pfasst.Beta)

	ctb := &Table{
		Title: "PR7 (modeled) — space-only vs best space×time per core count",
		Header: []string{"cores", "mode", "space-only(s)", "best PT", "best PS",
			"best(s)", "speedup"},
	}
	for _, c := range crossovers {
		ctb.AddRow(f("%d", c.Cores), c.Mode, f("%.4g", c.TSpaceOnly),
			f("%d", c.BestPT), f("%d", c.BestPS), f("%.4g", c.TBest), f("%.2f", c.Speedup))
	}
	ctb.AddNote("crossover claim: beyond spatial saturation the branch exchange dominates,")
	ctb.AddNote("so spending the same cores on PS×PT with PT>1 beats PS-only (Fig. 5 + Fig. 8)")
	return points, crossovers, tb, ctb
}

// BenchPR7Result is the machine-readable record of the joint scaling
// study (BENCH_PR7.json).
type BenchPR7Result struct {
	NExec        int     `json:"n_exec"`
	GridN        int     `json:"grid_n"`
	NModel       float64 `json:"n_model"`
	ThetaFine    float64 `json:"theta_fine"`
	ThetaCoarse  float64 `json:"theta_coarse"`
	SerialSweeps int     `json:"serial_sweeps"`
	CoresPerRank int     `json:"cores_per_rank"`

	BranchFitA        float64 `json:"branch_fit_a"`
	BranchFitExp      float64 `json:"branch_fit_exp"`
	PrefetchPerBranch float64 `json:"prefetch_per_branch"`
	Alpha             float64 `json:"alpha"`

	BranchPoints []Fig5ExecPoint `json:"branch_executed"`
	Grid         []XTGridPoint   `json:"grid_executed"`
	Model        []XTModelPoint  `json:"model"`
	Crossovers   []XTCrossover   `json:"crossovers"`
	// Headline is the batched-mode crossover at the largest modeled
	// core count — the paper's 262,144-core claim.
	Headline XTCrossover `json:"headline"`

	Measurement string `json:"measurement"`
}

// BenchPR7Model runs the modeled part of the study: it calibrates the
// branch fit (on the ring points), prefetch ratio and coarse/fine ratio
// from the given executed branch points of both modes, extrapolates,
// and fills everything of the result except the executed grid.
func BenchPR7Model(cfg Fig5XTConfig, branchPoints []Fig5ExecPoint) (BenchPR7Result, []*Table) {
	fit := FitBranches(ModePoints(branchPoints, hot.BranchRing))
	pref := prefetchRatio(branchPoints)
	alpha, _ := MeasureAlpha(cfg.GridN, cfg.ThetaFine, cfg.ThetaCoarse)
	model, crossovers, mtb, ctb := Fig5XTModel(cfg, fit, pref, alpha)

	res := BenchPR7Result{
		NExec: cfg.NExec, GridN: cfg.GridN, NModel: cfg.NModel,
		ThetaFine: cfg.ThetaFine, ThetaCoarse: cfg.ThetaCoarse,
		SerialSweeps: cfg.SerialSweeps, CoresPerRank: cfg.CoresPerRank,
		BranchFitA: fit.A, BranchFitExp: fit.Exp,
		PrefetchPerBranch: pref, Alpha: alpha,
		BranchPoints: branchPoints,
		Model:        model, Crossovers: crossovers,
	}
	for _, c := range crossovers {
		if c.Mode == hot.BranchBatched.String() &&
			(res.Headline.Cores == 0 || c.Cores > res.Headline.Cores) {
			res.Headline = c
		}
	}
	return res, []*Table{mtb, ctb}
}

// BenchPR7 runs the rest of the joint scaling study on the executed
// branch points of both modes (Fig5Executed at cfg.Fig5ExecConfig) and
// renders its tables.
func BenchPR7(cfg Fig5XTConfig, branchPoints []Fig5ExecPoint) (BenchPR7Result, []*Table) {
	btb := Fig5XTBranchTable(cfg.Fig5ExecConfig, branchPoints)
	grid, gtb := Fig5XTGrid(cfg)
	res, mtbs := BenchPR7Model(cfg, branchPoints)
	res.Grid = grid
	res.Measurement = "executed parts run the real solver on in-process ranks under virtual BG/P clocks " +
		"(branch comparison: one Coulomb evaluation per rank count and exchange mode; " +
		"grid: full space-time runs at a fixed rank budget vs the SDC baseline); " +
		"the model extrapolates the fitted cost structure to the paper's core counts " +
		"with per-phase totals that sum to the reported total"
	return res, append([]*Table{btb, gtb}, mtbs...)
}

// WriteJSON writes the record to a new file at path. An existing file
// is an error and is left untouched: a record is history, not a cache
// (the rule cmd/bench -out enforces).
func (r BenchPR7Result) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("fig5-xt: records are never overwritten: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
