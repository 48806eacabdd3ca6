package nbody

// Scaling lane (ci.sh): a small joint space×time scaling study that
// must reproduce the Fig. 5 × Fig. 8 crossover shape on every commit —
// beyond spatial saturation, spending the same modeled cores on a
// PS×PT grid with PT > 1 beats the space-only decomposition, and the
// batched branch exchange beats the ring where the ring is
// latency-bound. The executed part runs the real solver on a small
// grid (race-detector friendly); the modeled part checks the
// extrapolation's invariants.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/hot"
)

// laneConfig is the scaled-down study: an executed 8-rank grid and
// modeled grids up to 4096 ranks (16,384 modeled cores at the paper's
// 4 cores/rank) — among them the 64-spatial × 16-time layout. The
// modeled particle count is small enough that the branch exchange
// saturates the spatial decomposition inside the lane's core budget;
// the full-size study is the fig5-xt experiment.
func laneConfig() experiments.Fig5XTConfig {
	cfg := experiments.DefaultFig5XT()
	cfg.NExec = 1024
	cfg.ExecRanks = []int{1, 2, 4, 8}
	cfg.GridN = 512
	cfg.GridRanks = 8
	cfg.GridPTs = []int{1, 2, 4}
	cfg.Steps = 4
	cfg.NModel = 2e4
	cfg.ModelCores = []int{4096, 16384}
	cfg.ModelPTs = []int{1, 2, 4, 8, 16}
	cfg.ModelSteps = 16
	return cfg
}

func TestScalingLaneModelCrossover(t *testing.T) {
	cfg := laneConfig()
	branchPoints := experiments.Fig5Executed(cfg.Fig5ExecConfig, hot.BranchRing, hot.BranchBatched)
	if len(branchPoints) != 2*len(cfg.ExecRanks) {
		t.Fatalf("branch study ran %d points, want %d", len(branchPoints), 2*len(cfg.ExecRanks))
	}
	// Both modes ship the same MAC-pruned cells; only the allgather
	// that carries the boxes and branch lists differs.
	prefetched := map[int]int64{}
	for _, p := range branchPoints {
		if p.Ranks > 1 && p.Prefetched == 0 {
			t.Fatalf("%s exchange at %d ranks prefetched nothing", p.Mode, p.Ranks)
		}
		if other, seen := prefetched[p.Ranks]; seen && other != p.Prefetched {
			t.Fatalf("the two exchanges prefetched %d and %d cells at %d ranks", other, p.Prefetched, p.Ranks)
		}
		prefetched[p.Ranks] = p.Prefetched
	}

	res, _ := experiments.BenchPR7Model(cfg, branchPoints)
	byKey := map[[3]int]map[string]experiments.XTModelPoint{}
	for _, p := range res.Model {
		k := [3]int{p.Cores, p.PT, p.PS}
		if byKey[k] == nil {
			byKey[k] = map[string]experiments.XTModelPoint{}
		}
		byKey[k][p.Mode] = p
		sum := p.TSort + p.TBuild + p.TBranch + p.TEval + p.TPfasstComm
		if d := sum - p.TTotal; d > 1e-12*p.TTotal || d < -1e-12*p.TTotal {
			t.Fatalf("phase columns do not sum to the total at %+v: %g vs %g", k, sum, p.TTotal)
		}
	}
	// The batched exchange must beat the latency-bound ring on the
	// space-only point of the largest modeled grid.
	big := cfg.ModelCores[len(cfg.ModelCores)-1]
	pure := byKey[[3]int{big, 1, big / cfg.CoresPerRank}]
	if pure[hot.BranchBatched.String()].TBranch >= pure[hot.BranchRing.String()].TBranch {
		t.Fatalf("modeled batched branch exchange not faster than ring at %d cores: %g vs %g",
			big, pure[hot.BranchBatched.String()].TBranch, pure[hot.BranchRing.String()].TBranch)
	}
	// The crossover shape: at the largest core count, for both modes,
	// the best PS×PT point beats space-only.
	seen := 0
	for _, c := range res.Crossovers {
		if c.Cores != big {
			continue
		}
		seen++
		if c.BestPT <= 1 || c.TBest >= c.TSpaceOnly {
			t.Fatalf("no space-time crossover at %d cores (%s): best PT=%d %.4g vs space-only %.4g",
				c.Cores, c.Mode, c.BestPT, c.TBest, c.TSpaceOnly)
		}
	}
	if seen != 2 {
		t.Fatalf("crossover summary has %d modes at %d cores, want 2", seen, big)
	}
	if res.Headline.Cores != big || res.Headline.Speedup <= 1 {
		t.Fatalf("headline crossover malformed: %+v", res.Headline)
	}
}

func TestScalingLaneExecutedGrid(t *testing.T) {
	cfg := laneConfig()
	grid, _ := experiments.Fig5XTGrid(cfg)
	if len(grid) != 2*len(cfg.GridPTs) {
		t.Fatalf("executed grid ran %d points, want %d", len(grid), 2*len(cfg.GridPTs))
	}
	for _, p := range grid {
		if p.VTTotal <= 0 {
			t.Fatalf("grid point PT=%d PS=%d (%s) has no modeled time", p.PT, p.PS, p.Mode)
		}
		if p.PT*p.PS != cfg.GridRanks {
			t.Fatalf("grid point PT=%d PS=%d does not use the fixed rank budget %d", p.PT, p.PS, cfg.GridRanks)
		}
		if p.PT > 1 && p.SpeedupVsSpaceOnly <= 0 {
			t.Fatalf("grid point PT=%d PS=%d (%s) missing the space-only comparison", p.PT, p.PS, p.Mode)
		}
	}
}
