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
	NExec     int   // particle count of the executed runs
	ExecRanks []int // rank counts of the executed runs
	Theta     float64
	Eps       float64 // Coulomb softening
	Seed      int64

	NModel     []float64 // paper: 0.125e6, 8e6, 2048e6
	ModelCores []int     // powers of 4 up to 262144
}

// DefaultFig5 returns the scaled configuration.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		NExec:     8192,
		ExecRanks: []int{1, 2, 4, 8, 16, 32},
		Theta:     0.6,
		Eps:       0.01,
		Seed:      1,
		NModel:    []float64{0.125e6, 8e6, 2048e6},
		ModelCores: []int{
			1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144,
		},
	}
}

// Fig5ExecPoint is one executed strong-scaling sample (virtual-clock
// times, maximum over ranks).
type Fig5ExecPoint struct {
	Ranks                                            int
	VTTotal, VTDecomp, VTBuild, VTBranch, VTTraverse float64
	TotalBranches                                    int
	Interactions                                     int64
	// Telemetry is the merged per-rank metric snapshot of this run:
	// counters summed over ranks, phase timer maxima = the parallel
	// phase times (each rank records exactly one span per phase here).
	Telemetry telemetry.Snapshot
}

// Fig5Executed runs the parallel tree for real at each rank count and
// reports modeled per-phase wall-clock times. The second table breaks
// the same runs down by telemetry phase and work counters.
func Fig5Executed(cfg Fig5Config) ([]Fig5ExecPoint, *Table, *Table) {
	full := particle.HomogeneousCoulomb(cfg.NExec, cfg.Seed)
	model := machine.BlueGeneP()
	var points []Fig5ExecPoint
	for _, p := range cfg.ExecRanks {
		var pt Fig5ExecPoint
		pt.Ranks = p
		var mu sync.Mutex
		vt, err := mpi.RunTimed(p, mpi.BlueGeneP(), func(c *mpi.Comm) error {
			reg := telemetry.New()
			local := hot.BlockPartition(full, c.Rank(), p)
			s := hot.New(c, hot.Config{
				Sm: kernel.Algebraic2(), Scheme: kernel.Transpose,
				Theta: cfg.Theta, Eps: cfg.Eps, Model: &model,
				Layout: particle.LayoutSoA,
				// The paper's exchange: Fig5Model prices the branch
				// allgather at the ring's P−1 chained latencies.
				Branch: hot.BranchRing,
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
		points = append(points, pt)
	}

	tb := &Table{
		Title: "Fig. 5 (executed) — parallel tree strong scaling, virtual BG/P clock",
		Header: []string{"ranks", "total(s)", "decomp(s)", "build(s)",
			"branch_xchg(s)", "traversal(s)", "branches", "interactions"},
	}
	for _, p := range points {
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
	for _, p := range points {
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
	return points, tb, ptb
}

// BranchFit is a power-law fit B(P) = A·P^B of the branch-node count.
type BranchFit struct {
	A, Exp float64
}

// FitBranches fits the executed branch counts (P ≥ 2) by least squares
// in log-log space.
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

// Fig5ModelPoint is one modeled strong-scaling sample.
type Fig5ModelPoint struct {
	N                                     float64
	Cores                                 int
	TDecomp, TBuild, TBranch, TTrav, TTot float64
}

// Fig5Model extrapolates the cost structure of the parallel tree to
// the paper's particle counts and core counts:
//
//	t_decomp  = sort(nloc·log2 N) + pairwise exchange
//	t_build   = build cost · nloc
//	t_branch  = ring allgather latency + branch payload + handling
//	t_trav    = interactions(nloc, θ, N) · cost
//
// with the branch count taken from the executed power-law fit. The
// shape — near-ideal scaling while nloc is large, then saturation as
// the P-dependent branch exchange dominates — is the Fig. 5 claim.
func Fig5Model(cfg Fig5Config, fit BranchFit) ([]Fig5ModelPoint, *Table) {
	tm := mpi.BlueGeneP()
	cm := machine.BlueGeneP()
	var points []Fig5ModelPoint
	for _, n := range cfg.NModel {
		for _, cores := range cfg.ModelCores {
			p := float64(cores)
			nloc := n / p
			branches := fit.A * math.Pow(p, fit.Exp)
			if branches < 1 {
				branches = 1
			}
			var pt Fig5ModelPoint
			pt.N, pt.Cores = n, cores
			log2n := math.Log2(n + 2)
			pt.TDecomp = cm.SortPerKey*nloc*log2n +
				4*math.Log2(p+1)*tm.Latency +
				2*nloc*80*tm.BytePeriod
			pt.TBuild = cm.TreeBuildPerParticle * nloc
			if cores > 1 {
				pt.TBranch = (p-1)*tm.Latency +
					branches*152*tm.BytePeriod +
					branches*cm.BranchPerNode
			}
			work := machine.TraversalWork(int(n), cfg.Theta)
			pt.TTrav = cm.CoulombInteraction * nloc * work
			pt.TTot = pt.TDecomp + pt.TBuild + pt.TBranch + pt.TTrav
			points = append(points, pt)
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
