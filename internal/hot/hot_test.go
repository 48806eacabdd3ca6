package hot

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/direct"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// runEval distributes the full system over p ranks, evaluates with the
// parallel tree and returns the gathered velocities and stretchings in
// original particle order, plus rank-0 stats.
func runEval(t *testing.T, full *particle.System, p int, cfg Config) ([]vec.Vec3, []vec.Vec3, Stats) {
	t.Helper()
	n := full.N()
	vel := make([]vec.Vec3, n)
	str := make([]vec.Vec3, n)
	var stats Stats
	err := mpi.Run(p, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), p)
		lv := make([]vec.Vec3, local.N())
		ls := make([]vec.Vec3, local.N())
		s := New(c, cfg)
		s.Eval(local, lv, ls)
		if c.Rank() == 0 {
			stats = s.Last
		}
		// Gather to rank 0 positions in the original full ordering.
		base := n * c.Rank() / p
		for i := range lv {
			vel[base+i] = lv[i]
			str[base+i] = ls[i]
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vel, str, stats
}

func defaultCfg(theta float64) Config {
	return Config{
		Sm:     kernel.Algebraic6(),
		Scheme: kernel.Transpose,
		Theta:  theta,
		Dipole: true,
	}
}

func TestParallelThetaZeroMatchesDirect(t *testing.T) {
	// With θ=0 the parallel tree must reproduce direct summation to
	// rounding, independent of the rank count.
	full := particle.RandomVortexBlob(120, 0.3, 21)
	ds := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
	wantV := make([]vec.Vec3, full.N())
	wantS := make([]vec.Vec3, full.N())
	ds.Eval(full, wantV, wantS)
	for _, p := range []int{1, 2, 4, 7} {
		vel, str, _ := runEval(t, full, p, defaultCfg(0))
		for i := range vel {
			if vel[i].Sub(wantV[i]).Norm() > 1e-11*(1+wantV[i].Norm()) {
				t.Fatalf("p=%d vel[%d] = %v, want %v", p, i, vel[i], wantV[i])
			}
			if str[i].Sub(wantS[i]).Norm() > 1e-11*(1+wantS[i].Norm()) {
				t.Fatalf("p=%d stretch[%d] = %v, want %v", p, i, str[i], wantS[i])
			}
		}
	}
}

func TestParallelAccuracyAtTheta(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(600))
	ds := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
	wantV := make([]vec.Vec3, full.N())
	wantS := make([]vec.Vec3, full.N())
	ds.Eval(full, wantV, wantS)
	for _, p := range []int{2, 5} {
		vel, _, _ := runEval(t, full, p, defaultCfg(0.3))
		maxErr, maxRef := 0.0, 0.0
		for i := range vel {
			maxErr = math.Max(maxErr, vel[i].Sub(wantV[i]).Norm())
			maxRef = math.Max(maxRef, wantV[i].Norm())
		}
		if maxErr/maxRef > 5e-3 {
			t.Fatalf("p=%d relative error %g at θ=0.3", p, maxErr/maxRef)
		}
	}
}

func TestParallelMatchesAcrossRankCounts(t *testing.T) {
	// The parallel result must be nearly independent of the number of
	// ranks (the decomposition shifts clustering decisions only
	// slightly).
	full := particle.SphericalVortexSheet(particle.DefaultSheet(400))
	v1, _, _ := runEval(t, full, 1, defaultCfg(0.4))
	v4, _, _ := runEval(t, full, 4, defaultCfg(0.4))
	maxRef := 0.0
	for i := range v1 {
		maxRef = math.Max(maxRef, v1[i].Norm())
	}
	for i := range v1 {
		if v1[i].Sub(v4[i]).Norm() > 2e-2*maxRef {
			t.Fatalf("rank-count sensitivity too large at %d: %v vs %v", i, v1[i], v4[i])
		}
	}
}

func TestBranchDisjointCoverage(t *testing.T) {
	// Branch key ranges from all ranks must be pairwise disjoint and
	// cover every particle key.
	full := particle.RandomVortexBlob(300, 0.2, 23)
	const p = 6
	err := mpi.Run(p, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), p)
		s := New(c, defaultCfg(0.5))
		lv := make([]vec.Vec3, local.N())
		ls := make([]vec.Vec3, local.N())
		s.Eval(local, lv, ls)
		if s.Last.LocalBranches == 0 && s.Last.NLocal > 0 {
			return errors.New("rank with particles but no branches")
		}
		if s.Last.TotalBranches < s.Last.LocalBranches {
			return fmt.Errorf("total branches %d < local %d", s.Last.TotalBranches, s.Last.LocalBranches)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBranchCountGrowsWithRanks(t *testing.T) {
	full := particle.RandomVortexBlob(2000, 0.2, 29)
	_, _, s2 := runEval(t, full, 2, defaultCfg(0.5))
	_, _, s8 := runEval(t, full, 8, defaultCfg(0.5))
	if s8.TotalBranches <= s2.TotalBranches {
		t.Fatalf("branches: p=2 %d, p=8 %d — should grow with ranks",
			s2.TotalBranches, s8.TotalBranches)
	}
}

func TestPrefetchHappensAcrossRanks(t *testing.T) {
	full := particle.RandomVortexBlob(500, 0.2, 31)
	_, _, st := runEval(t, full, 4, defaultCfg(0.2))
	if st.Prefetched == 0 {
		t.Fatal("expected prefetched remote cells at small θ across 4 ranks")
	}
	if st.Interactions == 0 {
		t.Fatal("no interactions recorded")
	}
}

func TestCoulombParallelMatchesDirect(t *testing.T) {
	full := particle.HomogeneousCoulomb(200, 37)
	const eps = 0.02
	ds := direct.New(kernel.Algebraic2(), kernel.Transpose, 0)
	wantP := make([]float64, full.N())
	wantE := make([]vec.Vec3, full.N())
	ds.Coulomb(full, eps, wantP, wantE)

	n := full.N()
	gotP := make([]float64, n)
	gotE := make([]vec.Vec3, n)
	const p = 4
	cfg := defaultCfg(0)
	cfg.Eps = eps
	err := mpi.Run(p, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), p)
		s := New(c, cfg)
		lp := make([]float64, local.N())
		le := make([]vec.Vec3, local.N())
		s.Coulomb(local, lp, le)
		base := n * c.Rank() / p
		for i := range lp {
			gotP[base+i] = lp[i]
			gotE[base+i] = le[i]
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotP {
		if math.Abs(gotP[i]-wantP[i]) > 1e-10*(1+math.Abs(wantP[i])) {
			t.Fatalf("pot[%d] = %v, want %v", i, gotP[i], wantP[i])
		}
		if gotE[i].Sub(wantE[i]).Norm() > 1e-10*(1+wantE[i].Norm()) {
			t.Fatalf("field[%d] = %v, want %v", i, gotE[i], wantE[i])
		}
	}
}

func TestVirtualTimingPhasesPopulated(t *testing.T) {
	full := particle.RandomVortexBlob(400, 0.2, 41)
	model := machine.BlueGeneP()
	cfg := defaultCfg(0.4)
	cfg.Model = &model
	var st Stats
	_, err := mpi.RunTimed(4, mpi.BlueGeneP(), func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), 4)
		s := New(c, cfg)
		lv := make([]vec.Vec3, local.N())
		ls := make([]vec.Vec3, local.N())
		s.Eval(local, lv, ls)
		if c.Rank() == 0 {
			st = s.Last
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TDecomp <= 0 || st.TBuild <= 0 || st.TBranch <= 0 || st.TTraverse <= 0 {
		t.Fatalf("phase times not populated: %+v", st)
	}
}

func TestCodecParticleRoundTrip(t *testing.T) {
	p := particle.Particle{
		Pos:    vec.V3(1.5, -2.25, 3.75),
		Alpha:  vec.V3(0.1, 0.2, -0.3),
		Vol:    0.01,
		Charge: -1,
	}
	buf := encodeParticle(nil, &p, 3, 42, 2.5)
	got, orank, oidx, weight := decodeParticle(buf)
	if weight != 2.5 {
		t.Fatalf("weight %v", weight)
	}
	if got.Pos != p.Pos || got.Alpha != p.Alpha || got.Vol != p.Vol || got.Charge != p.Charge {
		t.Fatalf("round trip: %+v", got)
	}
	if orank != 3 || oidx != 42 {
		t.Fatalf("origin %d %d", orank, oidx)
	}
}

func TestCodecCellRoundTrip(t *testing.T) {
	sys := particle.RandomVortexBlob(50, 0.2, 43)
	tr := tree.Build(sys, tree.BuildConfig{LeafCap: 4, Discipline: tree.Vortex})
	nd := &tr.Nodes[tr.Root]
	buf := encodeCell(nil, nd, tree.Vortex)
	if len(buf) != cellRecBytes {
		t.Fatalf("record size %d", len(buf))
	}
	// Decode over a dirty node: a slab cell reused from an earlier
	// evaluation must be overwritten completely.
	got := tree.Node{Charge: 7, AbsCharge: 3, First: 5}
	pkey := decodeCell(&got, buf, tree.Vortex, tr.Domain)
	if pkey != nd.PKey() {
		t.Fatalf("pkey %x, want %x", pkey, nd.PKey())
	}
	if got.CircSum.Sub(nd.CircSum).Norm() > 1e-15 ||
		got.Centroid.Sub(nd.Centroid).Norm() > 1e-15 ||
		math.Abs(got.AbsCirc-nd.AbsCirc) > 1e-15 {
		t.Fatal("vortex moments corrupted")
	}
	if got.Dipole != nd.Dipole {
		t.Fatal("dipole corrupted")
	}
	if got.Count != nd.Count || got.Leaf != nd.Leaf {
		t.Fatal("meta corrupted")
	}
	if got.Charge != 0 || got.AbsCharge != 0 || got.First != 0 {
		t.Fatal("decodeCell left stale fields behind")
	}

	trC := tree.Build(sys, tree.BuildConfig{LeafCap: 4, Discipline: tree.Coulomb})
	ndC := &trC.Nodes[trC.Root]
	bufC := encodeCell(nil, ndC, tree.Coulomb)
	var gotC tree.Node
	decodeCell(&gotC, bufC, tree.Coulomb, trC.Domain)
	if gotC.Charge != ndC.Charge || gotC.QuadQ != ndC.QuadQ || gotC.DipoleQ != ndC.DipoleQ {
		t.Fatal("coulomb moments corrupted")
	}
}

func TestOwnedRangeAndKeyOwnerConsistent(t *testing.T) {
	splitters := []uint64{100, 200, 300}
	p := 4
	for r := 0; r < p; r++ {
		lo, hi := ownedRange(splitters, r, p)
		for _, k := range []uint64{lo, hi} {
			if got := keyOwner(splitters, k); got != r {
				t.Fatalf("key %d: owner %d, want %d", k, got, r)
			}
		}
	}
	if keyOwner(splitters, 99) != 0 || keyOwner(splitters, 100) != 1 {
		t.Fatal("splitter boundary misassigned")
	}
}

func TestUnevenDistribution(t *testing.T) {
	// All particles clustered in one corner: some ranks may end up
	// empty; the evaluation must still complete and agree with direct.
	full := particle.RandomVortexBlob(60, 0.2, 47)
	for i := range full.Particles {
		full.Particles[i].Pos = full.Particles[i].Pos.Scale(0.01)
	}
	full.Particles[0].Pos = vec.V3(5, 5, 5) // one outlier stretches the domain
	ds := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
	wantV := make([]vec.Vec3, full.N())
	wantS := make([]vec.Vec3, full.N())
	ds.Eval(full, wantV, wantS)
	vel, _, _ := runEval(t, full, 5, defaultCfg(0))
	for i := range vel {
		if vel[i].Sub(wantV[i]).Norm() > 1e-10*(1+wantV[i].Norm()) {
			t.Fatalf("vel[%d] = %v, want %v", i, vel[i], wantV[i])
		}
	}
}

func TestBlockPartitionCoversAll(t *testing.T) {
	full := particle.RandomVortexBlob(10, 0.2, 53)
	total := 0
	for r := 0; r < 3; r++ {
		part := BlockPartition(full, r, 3)
		total += part.N()
		if part.Sigma != full.Sigma {
			t.Fatal("sigma lost")
		}
	}
	if total != 10 {
		t.Fatalf("partitions cover %d of 10", total)
	}
}

// benchWarmEvals is the number of untimed evaluations
// BenchmarkHOTEval4Ranks runs before its timer starts. At 20 a timed
// run of 400 evaluations still read 15–21 B/op, the tail of the refill
// after the harness's GC; at 100 it reads 0–13 B/op.
const benchWarmEvals = 100

// BenchmarkHOTEval4Ranks measures the steady state every SDC sweep runs
// in: one world and one solver per rank for the whole benchmark,
// benchWarmEvals warm-up evaluations, then b.N collective evaluations
// timed barrier to barrier. Ranks share one heap, so B/op and
// allocs/op are the whole world's figures per evaluation.
func BenchmarkHOTEval4Ranks(b *testing.B) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(2000))
	cfg := defaultCfg(0.3)
	b.ReportAllocs()
	err := mpi.Run(4, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), 4)
		s := New(c, cfg)
		lv := make([]vec.Vec3, local.N())
		ls := make([]vec.Vec3, local.N())
		// Warm past the first evaluation's sizing and past the refill
		// of the runtime's wait-queue caches and of the mailboxes and
		// free list after the harness's GC, so the timed loop reads
		// the steady state whatever its length.
		for range benchWarmEvals {
			s.Eval(local, lv, ls)
			c.Barrier()
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.Eval(local, lv, ls)
			c.Barrier()
		}
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func TestHybridMatchesSynchronous(t *testing.T) {
	// The threaded (Pthreads-analog) traversal must produce the same
	// forces as the single-threaded path.
	full := particle.SphericalVortexSheet(particle.ScaledSheet(500))
	cfgSync := defaultCfg(0.4)
	cfgHyb := defaultCfg(0.4)
	cfgHyb.Threads = 4
	for _, p := range []int{1, 3} {
		velS, strS, _ := runEval(t, full, p, cfgSync)
		velH, strH, stH := runEval(t, full, p, cfgHyb)
		for i := range velS {
			if velS[i].Sub(velH[i]).Norm() > 1e-12*(1+velS[i].Norm()) {
				t.Fatalf("p=%d hybrid vel[%d] = %v, sync %v", p, i, velH[i], velS[i])
			}
			if strS[i].Sub(strH[i]).Norm() > 1e-12*(1+strS[i].Norm()) {
				t.Fatalf("p=%d hybrid stretch mismatch at %d", p, i)
			}
		}
		if stH.Interactions == 0 {
			t.Fatal("hybrid interactions not recorded")
		}
	}
}

func TestHybridPrefetchAcrossRanks(t *testing.T) {
	full := particle.RandomVortexBlob(400, 0.2, 77)
	cfg := defaultCfg(0.15) // tight MAC forces remote resolution
	cfg.Threads = 3
	_, _, st := runEval(t, full, 4, cfg)
	if st.Prefetched == 0 {
		t.Fatal("expected prefetched remote cells under the threaded traversal")
	}
}

func TestHybridRepeatedEvals(t *testing.T) {
	// The threaded traversal must be re-usable across multiple
	// collective evaluations on the same communicator (as the
	// integrators do).
	full := particle.SphericalVortexSheet(particle.ScaledSheet(200))
	cfg := defaultCfg(0.4)
	cfg.Threads = 2
	err := mpi.Run(3, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), 3)
		s := New(c, cfg)
		lv := make([]vec.Vec3, local.N())
		ls := make([]vec.Vec3, local.N())
		for iter := 0; iter < 3; iter++ {
			s.Eval(local, lv, ls)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
