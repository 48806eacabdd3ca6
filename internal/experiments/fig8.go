package experiments

import (
	"repro/internal/core"
	"repro/internal/hot"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
)

// Fig8Config parameterizes the space-time speedup study (Fig. 8): the
// speedup of PEPC+PFASST(2,2,PT) over time-serial SDC(4) with
// already-saturated spatial parallelism. The paper's small setup is
// N = 125,000 particles on PS = 512 nodes with PT up to 32 (65,536
// cores); the large one N = 4·10⁶ on PS = 2,048 nodes (262,144 cores).
type Fig8Config struct {
	Name string
	N    int
	PS   int
	PTs  []int
	Dt   float64

	ThetaFine, ThetaCoarse   float64
	Iterations, CoarseSweeps int
	SerialSweeps             int // Ks of the SDC baseline (paper: 4)
	CoresPerRank             int // cores represented by one rank (paper: 4/node)
}

// DefaultFig8Small returns the scaled-down "small setup".
func DefaultFig8Small() Fig8Config {
	return Fig8Config{
		Name: "small", N: 1024, PS: 4, PTs: []int{1, 2, 4, 8}, Dt: 0.5,
		ThetaFine: 0.3, ThetaCoarse: 0.6,
		Iterations: 2, CoarseSweeps: 2, SerialSweeps: 4,
		CoresPerRank: 4,
	}
}

// DefaultFig8Large returns the scaled-down "large setup" (more
// particles per rank, like the paper's 4M/2048-node case).
func DefaultFig8Large() Fig8Config {
	cfg := DefaultFig8Small()
	cfg.Name = "large"
	cfg.N = 4096
	return cfg
}

// PaperFig8Small returns the paper's small setup: N = 125,000 on
// PS = 512 spatial ranks with PT up to 32 — 16,384 in-process ranks at
// the largest point. Feasible only with patience and memory; the
// scaled defaults reproduce the same curve shape.
func PaperFig8Small() Fig8Config {
	cfg := DefaultFig8Small()
	cfg.Name = "paper-small"
	cfg.N = 125000
	cfg.PS = 512
	cfg.PTs = []int{1, 2, 4, 8, 16, 32}
	return cfg
}

// Fig8Point is one sample of the speedup curve.
type Fig8Point struct {
	PT, Cores         int
	TSerial, TPFASST  float64
	Speedup           float64
	Theory            float64
	LastSliceIterDiff float64
}

// MeasureAlpha estimates the coarse/fine sweep cost ratio α of
// Eq. (26): the interaction-count ratio of tree evaluations at the two
// MAC parameters, scaled by the node counts (2 coarse / 3 fine).
func MeasureAlpha(n int, thetaFine, thetaCoarse float64) (alpha, ratio float64) {
	res, _ := ThetaCoarseningRatio(n, thetaFine, thetaCoarse)
	return res.Alpha, res.Ratio
}

// Fig8Speedup runs the full space-time code under virtual BG/P clocks
// for every PT, the purely space-parallel SDC(Ks) baseline over the
// same horizon, and the Eq. (24) theory curve.
func Fig8Speedup(cfg Fig8Config) ([]Fig8Point, *Table) {
	full := particle.SphericalVortexSheet(particle.ScaledSheet(cfg.N))
	alpha, ratio := MeasureAlpha(cfg.N, cfg.ThetaFine, cfg.ThetaCoarse)

	var points []Fig8Point
	for _, pt := range cfg.PTs {
		nsteps := pt // one block; horizon grows with PT as in the paper's strong-scaling-in-time reading
		t1 := float64(nsteps) * cfg.Dt
		ccfg := core.Default(pt, cfg.PS)
		ccfg.ThetaFine, ccfg.ThetaCoarse = cfg.ThetaFine, cfg.ThetaCoarse
		ccfg.Iterations, ccfg.CoarseSweeps = cfg.Iterations, cfg.CoarseSweeps
		tSerial := modeledSerialSDC(ccfg, full, t1, nsteps, cfg.SerialSweeps)
		tPfasst, iterDiff := modeledSpaceTime(ccfg, full, t1, nsteps)

		points = append(points, Fig8Point{
			PT:                pt,
			Cores:             pt * cfg.PS * cfg.CoresPerRank,
			TSerial:           tSerial,
			TPFASST:           tPfasst,
			Speedup:           tSerial / tPfasst,
			Theory:            pfasst.TwoLevelSpeedup(pt, cfg.SerialSweeps, cfg.Iterations, float64(cfg.CoarseSweeps), alpha, pfasst.Beta),
			LastSliceIterDiff: iterDiff,
		})
	}

	tb := &Table{
		Title: f("Fig. 8 (%s setup) — speedup of PEPC+PFASST(%d,%d,PT) vs SDC(%d)",
			cfg.Name, cfg.Iterations, cfg.CoarseSweeps, cfg.SerialSweeps),
		Header: []string{"PT", "cores", "T_serial(s)", "T_pfasst(s)",
			"speedup", "theory S(PT;a)", "last-slice resid"},
	}
	for _, p := range points {
		tb.AddRow(f("%d", p.PT), f("%d", p.Cores), f("%.4f", p.TSerial),
			f("%.4f", p.TPFASST), f("%.2f", p.Speedup), f("%.2f", p.Theory),
			f("%.2e", p.LastSliceIterDiff))
	}
	tb.AddNote("N=%d, PS=%d spatial ranks, dt=%g, theta fine/coarse = %g/%g", cfg.N, cfg.PS, cfg.Dt, cfg.ThetaFine, cfg.ThetaCoarse)
	tb.AddNote("measured coarse/fine evaluation ratio %.2f  =>  alpha = %.3f (Eq. 26)", ratio, alpha)
	tb.AddNote("paper shape: measured speedup tracks the Eq. 24 theory curve;")
	tb.AddNote("PFASST extends scaling beyond the saturated spatial decomposition")
	return points, tb
}

// modeledSerialSDC returns the virtual BG/P wall-clock time of the
// time-serial SDC(sweeps) baseline: ccfg's fine level on ccfg.PS
// spatial ranks over [0, t1] in nsteps steps. ccfg's PT and coarse
// level are not read.
func modeledSerialSDC(ccfg core.Config, full *particle.System, t1 float64, nsteps, sweeps int) float64 {
	model := machine.BlueGeneP()
	ccfg.Model = &model
	vt, err := mpi.RunTimed(ccfg.PS, mpi.BlueGeneP(), func(c *mpi.Comm) error {
		local := hot.BlockPartition(full, c.Rank(), ccfg.PS)
		_, err := core.RunSpaceSerialSDC(c, ccfg, local, 0, t1, nsteps, 3, sweeps)
		return err
	})
	if err != nil {
		panic(err)
	}
	return vt
}

// modeledSpaceTime returns the virtual BG/P wall-clock time of the
// space-time solver on ccfg's PT×PS grid over [0, t1] in nsteps steps,
// and the last time slice's final PFASST iteration difference.
func modeledSpaceTime(ccfg core.Config, full *particle.System, t1 float64, nsteps int) (vt, iterDiff float64) {
	model := machine.BlueGeneP()
	ccfg.Model = &model
	vt, err := mpi.RunTimed(ccfg.PT*ccfg.PS, mpi.BlueGeneP(), func(w *mpi.Comm) error {
		res, err := core.RunSpaceTime(w, ccfg, full, 0, t1, nsteps)
		if err != nil {
			return err
		}
		if res.TimeSlice == ccfg.PT-1 && res.SpatialIndex == 0 {
			iterDiff = res.PFASST.IterDiffs[len(res.PFASST.IterDiffs)-1]
		}
		w.Barrier()
		return nil
	})
	if err != nil {
		panic(err)
	}
	return vt, iterDiff
}
