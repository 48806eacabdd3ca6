package experiments

import (
	"math"
	"sync"

	"repro/internal/hot"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// Fig5ExecConfig parameterizes the executed Coulomb runs of the
// strong-scaling study: one parallel tree evaluation per rank count
// and branch exchange mode. Fig. 5 and the joint space×time study
// (Fig5XTConfig) share them.
type Fig5ExecConfig struct {
	NExec     int   // particle count of the executed runs
	ExecRanks []int // rank counts of the executed runs
	Theta     float64
	Eps       float64 // Coulomb softening
	Seed      int64
}

// DefaultFig5Exec returns the scaled executed runs: N = 8,192 on 1–32
// ranks at θ = 0.6.
func DefaultFig5Exec() Fig5ExecConfig {
	return Fig5ExecConfig{
		NExec:     8192,
		ExecRanks: []int{1, 2, 4, 8, 16, 32},
		Theta:     0.6,
		Eps:       0.01,
		Seed:      1,
	}
}

// Fig5Config parameterizes the strong-scaling study of the parallel
// tree code (Fig. 5 of the paper: homogeneous neutral Coulomb system,
// N ∈ {0.125, 8, 2048}·10⁶ on up to 294,912 Blue Gene/P cores).
//
// The experiment has two parts. The *executed* part runs the real
// parallel tree on up to tens of in-process ranks with virtual clocks,
// yielding honest per-phase times and the branch-node counts. The
// *modeled* part extrapolates the same cost structure — calibrated by
// the executed branch-count fit and the machine model — to the paper's
// particle numbers and core counts.
type Fig5Config struct {
	Fig5ExecConfig

	NModel     []float64 // paper: 0.125e6, 8e6, 2048e6
	ModelCores []int     // powers of 4 up to 262144
}

// DefaultFig5 returns the scaled configuration.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Fig5ExecConfig: DefaultFig5Exec(),
		NModel:         []float64{0.125e6, 8e6, 2048e6},
		ModelCores: []int{
			1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144,
		},
	}
}

// Fig5ExecPoint is one executed strong-scaling sample of one branch
// exchange mode (virtual-clock phase times, maxima over ranks).
type Fig5ExecPoint struct {
	Ranks         int     `json:"ranks"`
	Mode          string  `json:"mode"`
	VTTotal       float64 `json:"vt_total_s"`
	VTDecomp      float64 `json:"vt_decomp_s"`
	VTBuild       float64 `json:"vt_build_s"`
	VTBranch      float64 `json:"vt_branch_s"`
	VTTraverse    float64 `json:"vt_traverse_s"`
	TotalBranches int     `json:"branches"`
	Prefetched    int64   `json:"prefetched"`
	Interactions  int64   `json:"-"`
	// Telemetry is the merged per-rank metric snapshot of this run:
	// counters summed over ranks, phase timer maxima = the parallel
	// phase times (each rank records exactly one span per phase here).
	Telemetry telemetry.Snapshot `json:"-"`
}

// exchanges are the two allgathers of the branch exchange, in the
// order every table lists them: the paper's ring, then the batched
// rounds.
var exchanges = []hot.BranchMode{hot.BranchRing, hot.BranchBatched}

// Fig5Executed runs the parallel tree for real, one Coulomb evaluation
// per rank count and exchange mode (rank-major), and reports the
// modeled per-phase wall-clock times. Results are bitwise equal across
// modes; only the allgather of the branch exchange differs.
func Fig5Executed(cfg Fig5ExecConfig, modes ...hot.BranchMode) []Fig5ExecPoint {
	full := particle.HomogeneousCoulomb(cfg.NExec, cfg.Seed)
	model := machine.BlueGeneP()
	var points []Fig5ExecPoint
	for _, p := range cfg.ExecRanks {
		for _, mode := range modes {
			pt := Fig5ExecPoint{Ranks: p, Mode: mode.String()}
			var mu sync.Mutex
			vt, err := mpi.RunTimed(p, mpi.BlueGeneP(), func(c *mpi.Comm) error {
				reg := telemetry.New()
				local := hot.BlockPartition(full, c.Rank(), p)
				s := hot.New(c, hot.Config{
					Sm: kernel.Algebraic2(), Scheme: kernel.Transpose,
					Theta: cfg.Theta, Eps: cfg.Eps, Model: &model,
					Branch: mode,
					Tel:    reg,
				})
				pot := make([]float64, local.N())
				ef := make([]vec.Vec3, local.N())
				s.Coulomb(local, pot, ef)
				st := s.Last
				phases := c.AllreduceFloat64([]float64{
					st.TDecomp, st.TBuild, st.TBranch, st.TTraverse,
				}, mpi.OpMax)
				inter := c.AllreduceInt64([]int64{st.Interactions}, mpi.OpSum)
				if c.Rank() == 0 {
					pt.VTDecomp, pt.VTBuild = phases[0], phases[1]
					pt.VTBranch, pt.VTTraverse = phases[2], phases[3]
					pt.TotalBranches = st.TotalBranches
					pt.Interactions = inter[0]
				}
				c.Barrier()
				mu.Lock()
				pt.Telemetry.Merge(reg.Snapshot())
				mu.Unlock()
				return nil
			})
			if err != nil {
				panic(err)
			}
			pt.VTTotal = vt
			pt.Prefetched = pt.Telemetry.Counter(hot.CounterPrefetched)
			points = append(points, pt)
		}
	}
	return points
}

// ModePoints returns the points of one exchange mode, in rank order.
func ModePoints(points []Fig5ExecPoint, mode hot.BranchMode) []Fig5ExecPoint {
	var out []Fig5ExecPoint
	for _, p := range points {
		if p.Mode == mode.String() {
			out = append(out, p)
		}
	}
	return out
}

// Fig5Tables renders the Fig. 5 rows of the executed runs (the ring
// points: the paper's exchange, which Fig5Model prices) and breaks the
// same runs down by telemetry phase and work counters.
func Fig5Tables(cfg Fig5ExecConfig, ring []Fig5ExecPoint) (*Table, *Table) {
	tb := &Table{
		Title: "Fig. 5 (executed) — parallel tree strong scaling, virtual BG/P clock",
		Header: []string{"ranks", "total(s)", "decomp(s)", "build(s)",
			"branch_xchg(s)", "traversal(s)", "branches", "interactions"},
	}
	for _, p := range ring {
		tb.AddRow(f("%d", p.Ranks), f("%.4f", p.VTTotal), f("%.4f", p.VTDecomp),
			f("%.4f", p.VTBuild), f("%.4f", p.VTBranch), f("%.4f", p.VTTraverse),
			f("%d", p.TotalBranches), f("%d", p.Interactions))
	}
	tb.AddNote("N=%d homogeneous neutral Coulomb cloud, theta=%g", cfg.NExec, cfg.Theta)
	tb.AddNote("expected shape: traversal shrinks ~1/P; branch exchange grows with P")

	ptb := &Table{
		Title: "Fig. 5 (telemetry) — per-phase breakdown from merged rank snapshots",
		Header: []string{"ranks", "build(s)", "branch_xchg(s)", "traversal(s)",
			"mac_accepts", "mac_rejects", "p2p", "msgs", "sent_bytes"},
	}
	for _, p := range ring {
		s := p.Telemetry
		ptb.AddRow(f("%d", p.Ranks),
			f("%.4f", s.Timer(hot.PhaseBuild).Max),
			f("%.4f", s.Timer(hot.PhaseBranch).Max),
			f("%.4f", s.Timer(hot.PhaseTraverse).Max),
			f("%d", s.Counter(hot.CounterMACAccepts)),
			f("%d", s.Counter(hot.CounterMACRejects)),
			f("%d", s.Counter(hot.CounterP2P)),
			f("%d", s.Counter(mpi.CounterSends)),
			f("%d", s.Counter(mpi.CounterSendBytes)))
	}
	ptb.AddNote("phase times are per-rank maxima (one span per rank) on the virtual clock;")
	ptb.AddNote("counters sum over ranks; p2p = interactions - mac_accepts")
	return tb, ptb
}

// BranchFit is a power-law fit B(P) = A·P^B of the branch-node count.
type BranchFit struct {
	A, Exp float64
}

// FitBranches fits the executed branch counts (P ≥ 2) by least squares
// in log-log space. Pass the points of one exchange mode (the ring
// points): the count does not depend on the mode, and a repeated point
// would move the fit's rounding.
func FitBranches(points []Fig5ExecPoint) BranchFit {
	var xs, ys []float64
	for _, p := range points {
		if p.Ranks >= 2 {
			xs = append(xs, math.Log(float64(p.Ranks)))
			ys = append(ys, math.Log(float64(p.TotalBranches)))
		}
	}
	if len(xs) < 2 {
		return BranchFit{A: 8, Exp: 1}
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	b := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a := math.Exp((sy - b*sx) / n)
	return BranchFit{A: a, Exp: b}
}

// branches evaluates the fit at p ranks, at least one branch node.
func (fit BranchFit) branches(p float64) float64 {
	return max(1, fit.A*math.Pow(p, fit.Exp))
}

// evalCost is the modeled per-phase cost of one parallel tree
// evaluation.
type evalCost struct {
	sort, build, branch, eval float64
}

// modelEval prices one evaluation of n particles on p ranks holding
// nloc = n/p each on the Blue Gene/P model:
//
//	sort   = sort(nloc·log2 N) + pairwise exchange
//	build  = build cost · nloc
//	branch = ring:    (p−1)·L + B·152·BP + B·handling
//	         batched: 3·⌈log2 p⌉·L + (p·48 + B·152)·BP + B·handling
//	eval   = interactions(nloc, θ, N) · perInteraction
//
// for B branch nodes. The ring is the paper's exchange, one
// (p−1)-latency allgather of the branch lists; the batched exchange
// pays three aggregated rounds (rank AABBs, Bruck branch exchange,
// framed prefetch replies) instead. What resolves the cells below the
// branches is charged to neither.
func modelEval(n, p, branches, perInteraction, theta float64, mode hot.BranchMode) evalCost {
	tm := mpi.BlueGeneP()
	cm := machine.BlueGeneP()
	nloc := n / p
	c := evalCost{
		sort: cm.SortPerKey*nloc*math.Log2(n+2) +
			4*math.Log2(p+1)*tm.Latency +
			2*nloc*80*tm.BytePeriod,
		build: cm.TreeBuildPerParticle * nloc,
		eval:  perInteraction * nloc * machine.TraversalWork(int(n), theta),
	}
	if p > 1 {
		handling := branches * cm.BranchPerNode
		if mode == hot.BranchBatched {
			c.branch = 3*math.Ceil(math.Log2(p+1))*tm.Latency +
				(p*48+branches*152)*tm.BytePeriod +
				handling
		} else {
			c.branch = (p-1)*tm.Latency +
				branches*152*tm.BytePeriod +
				handling
		}
	}
	return c
}

// Fig5ModelPoint is one modeled strong-scaling sample.
type Fig5ModelPoint struct {
	N                                     float64
	Cores                                 int
	TDecomp, TBuild, TBranch, TTrav, TTot float64
}

// Fig5Model extrapolates the cost structure of the parallel tree to
// the paper's particle counts and core counts: one modelEval per
// (N, cores) with the paper's ring exchange, the Coulomb interaction
// cost and the branch count taken from the executed power-law fit. The
// shape — near-ideal scaling while nloc is large, then saturation as
// the P-dependent branch exchange dominates — is the Fig. 5 claim.
func Fig5Model(cfg Fig5Config, fit BranchFit) ([]Fig5ModelPoint, *Table) {
	cm := machine.BlueGeneP()
	var points []Fig5ModelPoint
	for _, n := range cfg.NModel {
		for _, cores := range cfg.ModelCores {
			p := float64(cores)
			c := modelEval(n, p, fit.branches(p), cm.CoulombInteraction, cfg.Theta, hot.BranchRing)
			points = append(points, Fig5ModelPoint{
				N: n, Cores: cores,
				TDecomp: c.sort, TBuild: c.build, TBranch: c.branch, TTrav: c.eval,
				TTot: c.sort + c.build + c.branch + c.eval,
			})
		}
	}

	tb := &Table{
		Title: "Fig. 5 (modeled) — strong scaling extrapolation to JUGENE scale",
		Header: []string{"N", "cores", "total(s)", "traversal(s)",
			"branch_xchg(s)", "decomp(s)"},
	}
	for _, p := range points {
		tb.AddRow(f("%.3g", p.N), f("%d", p.Cores), f("%.4g", p.TTot),
			f("%.4g", p.TTrav), f("%.4g", p.TBranch), f("%.4g", p.TDecomp))
	}
	tb.AddNote("branch-count fit from executed runs: B(P) = %.2f * P^%.2f", fit.A, fit.Exp)
	tb.AddNote("paper shape: ~ideal scaling while N/P large; saturation once branch")
	tb.AddNote("exchange dominates (small N saturates at far fewer cores than large N)")
	return points, tb
}

// SaturationCores returns the core count with the minimum modeled total
// time for the given N — the strong-scaling limit of Fig. 5.
func SaturationCores(points []Fig5ModelPoint, n float64) int {
	best, bestT := 0, math.Inf(1)
	for _, p := range points {
		if p.N == n && p.TTot < bestT {
			bestT = p.TTot
			best = p.Cores
		}
	}
	return best
}
