package farfield

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
	"repro/internal/sdc"
	"repro/internal/tree"
	"repro/internal/vec"
)

func TestRefreshEveryOneCloseToTree(t *testing.T) {
	// The split solver also MAC-accepts leaf buckets, so it is not
	// bitwise identical to the standard traversal — but at the same θ
	// the results must agree to tree accuracy.
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(300))
	ff := New(kernel.Algebraic6(), kernel.Transpose, 0.4, 1)
	ts := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.4)
	velF := make([]vec.Vec3, sys.N())
	strF := make([]vec.Vec3, sys.N())
	velT := make([]vec.Vec3, sys.N())
	strT := make([]vec.Vec3, sys.N())
	ff.Eval(sys, velF, strF)
	ts.Eval(sys, velT, strT)
	maxRef := 0.0
	for i := range velT {
		maxRef = math.Max(maxRef, velT[i].Norm())
	}
	for i := range velF {
		if velF[i].Sub(velT[i]).Norm() > 5e-3*maxRef {
			t.Fatalf("vel[%d]: farfield %v, tree %v", i, velF[i], velT[i])
		}
	}
}

// TestSplitCountsMatchWalk ties the near/far split to the standard
// walk on one tree. With one particle per leaf an accepted leaf is one
// interaction either way, so near + far must reproduce the tree
// solver's per-particle walk on the same tree — its interaction count
// per target and its reject total exactly, its field to rounding (the
// split reads an accepted leaf as a monopole at the leaf centroid, the
// walk reads its particle) — and the solver at RefreshEvery = 1 must
// report the same total.
func TestSplitCountsMatchWalk(t *testing.T) {
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(200))
	const theta = 0.4
	ff := New(kernel.Algebraic6(), kernel.Transpose, theta, 1)
	ff.LeafCap = 1
	n := sys.N()
	vel := make([]vec.Vec3, n)
	str := make([]vec.Vec3, n)
	ff.Eval(sys, vel, str)

	tr := tree.Build(sys, tree.BuildConfig{LeafCap: 1, Discipline: tree.Vortex, Layout: particle.LayoutSoA})
	vb := kernel.NewVortexBatch(kernel.Pairwise{Sm: kernel.Algebraic6(), Sigma: sys.Sigma})
	pw := &vb
	ts := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
	ts.Traversal = tree.TraversalRecursive
	ts.Workers = 1
	refVel, refStr, work := make([]vec.Vec3, n), make([]vec.Vec3, n), make([]float64, n)
	total, _, refRejects := ts.EvalGroups(tr, tr.Groups(1), refVel, refStr, work)
	var rejects int64
	for q, p := range sys.Particles {
		near, far := tr.VortexAtSplit(tr.Root, p.Pos, theta, q, pw, true, true)
		if got := near.Interactions + far.Interactions; float64(got) != work[q] {
			t.Fatalf("target %d: near+far = %d interactions, walk %v", q, got, work[q])
		}
		if far.CellAccepts != far.Interactions || near.CellAccepts != 0 {
			t.Fatalf("target %d: accepts on the wrong side (near %d, far %d of %d)", q, near.CellAccepts, far.CellAccepts, far.Interactions)
		}
		if d := near.U.Add(far.U).Sub(refVel[q]).Norm(); d > 1e-12*(1+refVel[q].Norm()) {
			t.Fatalf("target %d: near+far velocity off the walk by %g", q, d)
		}
		if vel[q] != near.U.Add(far.U) {
			t.Fatalf("target %d: solver velocity %v is not near+far %v", q, vel[q], near.U.Add(far.U))
		}
		rejects += near.Rejects + far.Rejects
	}
	if rejects != refRejects {
		t.Fatalf("near+far = %d rejects, walk %d", rejects, refRejects)
	}
	if got := ff.Stats().Interactions; got != total {
		t.Fatalf("solver counted %d interactions at RefreshEvery=1, walks %d", got, total)
	}
}

func TestStaleFarFieldIsSmallError(t *testing.T) {
	// After a small particle displacement, reusing the cached far field
	// must introduce only a small relative error.
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(300))
	ff := New(kernel.Algebraic6(), kernel.Transpose, 0.4, 10)
	n := sys.N()
	vel := make([]vec.Vec3, n)
	str := make([]vec.Vec3, n)
	ff.Eval(sys, vel, str) // refresh evaluation caches the far field

	// Displace particles slightly (as an SDC sweep would).
	moved := sys.Clone()
	for i := range moved.Particles {
		moved.Particles[i].Pos = moved.Particles[i].Pos.AddScaled(0.01, vel[i].Normalize())
	}
	velStale := make([]vec.Vec3, n)
	strStale := make([]vec.Vec3, n)
	ff.Eval(moved, velStale, strStale) // reuses cached far field

	exact := tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.4)
	velEx := make([]vec.Vec3, n)
	strEx := make([]vec.Vec3, n)
	exact.Eval(moved, velEx, strEx)

	maxErr, maxRef := 0.0, 0.0
	for i := range velStale {
		maxErr = math.Max(maxErr, velStale[i].Sub(velEx[i]).Norm())
		maxRef = math.Max(maxRef, velEx[i].Norm())
	}
	if maxErr/maxRef > 0.05 {
		t.Fatalf("stale far field error %g too large", maxErr/maxRef)
	}
	if maxErr == 0 {
		t.Fatal("stale evaluation suspiciously exact — cache unused?")
	}
}

func TestStaleEvaluationsAreCheaper(t *testing.T) {
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(500))
	ff := New(kernel.Algebraic6(), kernel.Transpose, 0.4, 4)
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	ff.Eval(sys, vel, str)
	refreshed := ff.Stats().Interactions
	ff.Eval(sys, vel, str)
	stale := ff.Stats().Interactions - refreshed
	if float64(stale) > 0.6*float64(refreshed) {
		t.Fatalf("stale evaluation not cheaper: %d vs %d interactions", stale, refreshed)
	}
}

func TestResetAndResize(t *testing.T) {
	small := particle.RandomVortexBlob(40, 0.3, 1)
	large := particle.RandomVortexBlob(70, 0.3, 2)
	ff := New(kernel.Algebraic6(), kernel.Transpose, 0.4, 3)
	vel := make([]vec.Vec3, 40)
	str := make([]vec.Vec3, 40)
	ff.Eval(small, vel, str)
	// Changing the particle count must transparently re-cache.
	vel = make([]vec.Vec3, 70)
	str = make([]vec.Vec3, 70)
	ff.Eval(large, vel, str)
	for i := range vel {
		if !vel[i].IsFinite() {
			t.Fatal("non-finite velocity after resize")
		}
	}
	ff.Reset()
	if ff.Name() == "" {
		t.Fatal("name missing")
	}
}

func TestFrequencySplitAsPFASSTCoarseLevel(t *testing.T) {
	// The outlook scenario: frequency-split evaluator as an even
	// cheaper coarse level. A short SDC integration using it must stay
	// close to the exact integration.
	sys := particle.SphericalVortexSheet(particle.ScaledSheet(200))
	exactSys := core.NewVortexSystem(sys, direct.New(kernel.Algebraic6(), kernel.Transpose, 0))
	splitSys := core.NewVortexSystem(sys, New(kernel.Algebraic6(), kernel.Transpose, 0.4, 3))

	uExact := sys.PackNew()
	sdc.NewIntegrator(exactSys, 3, 4).Integrate(0, 1, 2, uExact)
	uSplit := sys.PackNew()
	sdc.NewIntegrator(splitSys, 3, 4).Integrate(0, 1, 2, uSplit)

	maxErr, scale := 0.0, 0.0
	for i := range uExact {
		maxErr = math.Max(maxErr, math.Abs(uExact[i]-uSplit[i]))
		scale = math.Max(scale, math.Abs(uExact[i]))
	}
	if maxErr/scale > 0.02 {
		t.Fatalf("frequency-split integration deviates by %g", maxErr/scale)
	}
}

func TestFarFieldCoarseLevelPFASST(t *testing.T) {
	// The Section V outlook end-to-end: PFASST with a θ=0.3 tree fine
	// level and a frequency-split θ=0.6 coarse level must converge to
	// the fine serial solution.
	full := particle.SphericalVortexSheet(particle.ScaledSheet(160))
	const pt = 4
	tEnd := 2.0

	refSys := core.NewVortexSystem(full, tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3))
	uRef := full.PackNew()
	sdc.NewIntegrator(refSys, 3, 8).Integrate(0, tEnd, pt, uRef)

	var uGot []float64
	err := mpi.Run(pt, func(c *mpi.Comm) error {
		fineSys := core.NewVortexSystem(full, tree.NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3))
		coarseSys := core.NewVortexSystem(full, New(kernel.Algebraic6(), kernel.Transpose, 0.6, 3))
		cfg := pfasst.Config{
			Levels: []pfasst.LevelSpec{
				{Sys: fineSys, NNodes: 3},
				{Sys: coarseSys, NNodes: 2},
			},
			Iterations: 6, CoarseSweeps: 2,
		}
		res, err := pfasst.Run(c, cfg, 0, tEnd, pt, full.PackNew())
		if err != nil {
			return err
		}
		if c.Rank() == pt-1 {
			uGot = res.U
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	maxErr, scale := 0.0, 0.0
	for i := range uRef {
		maxErr = math.Max(maxErr, math.Abs(uRef[i]-uGot[i]))
		scale = math.Max(scale, math.Abs(uRef[i]))
	}
	if maxErr/scale > 5e-3 {
		t.Fatalf("farfield-coarse PFASST deviates by %g", maxErr/scale)
	}
}
