package experiments

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/parareal"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/rk"
	"repro/internal/sdc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// The ablation studies quantify the design choices DESIGN.md calls
// out: the cluster dipole correction, the stretching scheme, the
// parareal-vs-PFASST efficiency gap, the far-field refresh period, and
// the tree bucket size.

// AblationDipole measures the tree velocity error against direct
// summation with and without the cluster dipole correction.
func AblationDipole(n int, theta float64) *Table {
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(n))
	ds := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
	wantV := make([]vec.Vec3, n)
	wantS := make([]vec.Vec3, n)
	ds.Eval(sys, wantV, wantS)
	maxRef := 0.0
	for _, v := range wantV {
		maxRef = math.Max(maxRef, v.Norm())
	}
	tb := &Table{
		Title:  "Ablation — cluster dipole correction",
		Header: []string{"dipole", "rel. max vel error", "interactions"},
	}
	for _, dip := range []bool{false, true} {
		ts := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
		ts.Dipole = dip
		vel := make([]vec.Vec3, n)
		str := make([]vec.Vec3, n)
		ts.Eval(sys, vel, str)
		maxErr := 0.0
		for i := range vel {
			maxErr = math.Max(maxErr, vel[i].Sub(wantV[i]).Norm())
		}
		tb.AddRow(f("%v", dip), f("%.3e", maxErr/maxRef), f("%d", ts.Stats().Interactions))
	}
	tb.AddNote("N=%d, theta=%g; the dipole term sharpens accepted clusters at no extra traversal cost", n, theta)
	return tb
}

// AblationStretching contrasts the transpose and classical stretching
// schemes: drift of the total circulation (an invariant the transpose
// scheme preserves exactly) over a short evolution.
func AblationStretching(n, steps int) *Table {
	tb := &Table{
		Title:  "Ablation — vortex stretching scheme (transpose vs classical)",
		Header: []string{"scheme", "|sum alpha| drift", "impulse drift"},
	}
	for _, scheme := range []kernel.Scheme{kernel.Transpose, kernel.Classical} {
		sys := particle.SphericalVortexSheet(particle.ScaledSheet(n))
		before := particle.Diagnose(sys)
		// Direct summation: pairwise antisymmetry holds exactly, so the
		// transpose scheme's conservation is exact (tree clustering
		// would re-introduce O(tree error) drift).
		odeSys := core.NewVortexSystem(sys, direct.New(kernel.Algebraic6(), scheme, 0))
		u := sys.PackNew()
		rk.NewStepper(rk.Midpoint(), odeSys).Integrate(0, float64(steps), steps, u)
		sys.Unpack(u)
		after := particle.Diagnose(sys)
		tb.AddRow(scheme.String(),
			f("%.3e", after.TotalCirculation.Sub(before.TotalCirculation).Norm()),
			f("%.3e", after.LinearImpulse.Sub(before.LinearImpulse).Norm()))
	}
	tb.AddNote("N=%d, RK2, %d unit steps; the paper's Eq. 6 uses the transpose form", n, steps)
	return tb
}

// AblationPararealVsPFASST compares the two parallel-in-time methods
// on the same vortex problem at equal iteration counts, alongside
// their theoretical efficiency bounds (1/K vs Ks/Kp).
func AblationPararealVsPFASST(n, pt int) *Table {
	full := particle.SphericalVortexSheet(particle.ScaledSheet(n))
	tEnd := float64(pt) * 0.5

	// Reference: serial fine SDC(4).
	refSys := core.NewVortexSystem(full, direct.New(kernel.Algebraic6(), kernel.Transpose, 0))
	uRef := full.PackNew()
	sdc.NewIntegrator(refSys, 3, 8).Integrate(0, tEnd, pt, uRef)
	ref := full.Clone()
	ref.Unpack(uRef)

	errOf := func(u []float64) float64 {
		got := full.Clone()
		got.Unpack(u)
		return particle.RelMaxPositionError(got, ref)
	}

	tb := &Table{
		Title:  "Ablation — parareal vs PFASST (cost in fine sweeps per slice)",
		Header: []string{"method", "K", "fine sweeps", "rel. max error", "efficiency bound"},
	}
	for _, k := range []int{1, 2} {
		// Parareal: coarse = 2-node SDC single sweep, fine = SDC(4).
		var finalP []float64
		err := mpi.Run(pt, func(c *mpi.Comm) error {
			mk := func() (parareal.Propagator, parareal.Propagator) {
				sysF := core.NewVortexSystem(full, direct.New(kernel.Algebraic6(), kernel.Transpose, 1))
				sysC := core.NewVortexSystem(full, direct.New(kernel.Algebraic6(), kernel.Transpose, 1))
				coarse := func(t0, t1 float64, u []float64) {
					sdc.NewIntegrator(sysC, 2, 1).Integrate(t0, t1, 1, u)
				}
				fine := func(t0, t1 float64, u []float64) {
					sdc.NewIntegrator(sysF, 3, 4).Integrate(t0, t1, 1, u)
				}
				return coarse, fine
			}
			coarse, fine := mk()
			res, err := parareal.Run(c, coarse, fine, 0, tEnd, full.PackNew(), k)
			if err != nil {
				return err
			}
			if c.Rank() == pt-1 {
				finalP = res.Final
			}
			c.Barrier()
			return nil
		})
		if err != nil {
			panic(err)
		}
		// One parareal iteration runs the full fine propagator:
		// SDC(4) = 4 fine sweeps per slice.
		tb.AddRow("parareal", f("%d", k), f("%d", 4*k), f("%.3e", errOf(finalP)),
			f("1/K = %.2f", parareal.EfficiencyBound(k)))

		// PFASST(k, 2, pt).
		var finalF []float64
		err = mpi.Run(pt, func(c *mpi.Comm) error {
			sysF := core.NewVortexSystem(full, direct.New(kernel.Algebraic6(), kernel.Transpose, 1))
			sysC := core.NewVortexSystem(full, direct.New(kernel.Algebraic6(), kernel.Transpose, 1))
			cfg := pfasst.Config{
				Levels: []pfasst.LevelSpec{
					{Sys: sysF, NNodes: 3},
					{Sys: sysC, NNodes: 2},
				},
				Iterations: k, CoarseSweeps: 2,
			}
			res, err := pfasst.Run(c, cfg, 0, tEnd, pt, full.PackNew())
			if err != nil {
				return err
			}
			if c.Rank() == pt-1 {
				finalF = res.U
			}
			c.Barrier()
			return nil
		})
		if err != nil {
			panic(err)
		}
		// One PFASST iteration costs a single fine sweep (plus cheap
		// coarse work); the finalize sweep adds one more.
		tb.AddRow("PFASST", f("%d", k), f("%d", k+1), f("%.3e", errOf(finalF)),
			f("Ks/Kp = %.2f", pfasst.EfficiencyBound(4, k)))
	}
	tb.AddNote("N=%d, PT=%d slices, dt=0.5, direct summation; reference: serial SDC(8 sweeps)", n, pt)
	tb.AddNote("PFASST reaches fine accuracy in fewer iterations and its efficiency")
	tb.AddNote("bound Ks/Kp beats parareal's 1/K (Section III-B4)")
	return tb
}

// AblationLeafCap sweeps the tree bucket size: interactions and wall
// time per evaluation.
func AblationLeafCap(n int, caps []int) *Table {
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(n))
	tb := &Table{
		Title:  "Ablation — tree leaf bucket size",
		Header: []string{"leaf cap", "interactions", "wall/eval"},
	}
	vel := make([]vec.Vec3, n)
	str := make([]vec.Vec3, n)
	for _, cap := range caps {
		ts := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.4)
		ts.LeafCap = cap
		start := time.Now()
		ts.Eval(sys, vel, str)
		tb.AddRow(f("%d", cap), f("%d", ts.Stats().Interactions),
			time.Since(start).Round(time.Microsecond).String())
	}
	tb.AddNote("N=%d, theta=0.4; bucket size trades build cost against direct work", n)
	return tb
}
