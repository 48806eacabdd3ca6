package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/direct"
	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// algebraic6Batch is the paper's pair kernel at core size sigma, as the
// per-target evaluators take it.
func algebraic6Batch(sigma float64) *kernel.VortexBatch {
	b := kernel.NewVortexBatch(kernel.Pairwise{Sm: kernel.Algebraic6(), Sigma: sigma})
	return &b
}

func TestMortonRoundTripProperty(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= 0x1fffff
		y &= 0x1fffff
		z &= 0x1fffff
		ix, iy, iz := MortonDecode(MortonKey(x, y, z))
		return ix == x && iy == y && iz == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMortonKnownValues(t *testing.T) {
	if MortonKey(0, 0, 0) != 0 {
		t.Fatal("key(0,0,0) != 0")
	}
	if MortonKey(1, 0, 0) != 1 {
		t.Fatal("x must occupy bit 0")
	}
	if MortonKey(0, 1, 0) != 2 {
		t.Fatal("y must occupy bit 1")
	}
	if MortonKey(0, 0, 1) != 4 {
		t.Fatal("z must occupy bit 2")
	}
	if MortonKey(3, 0, 0) != 0b1001 {
		t.Fatalf("key(3,0,0) = %b", MortonKey(3, 0, 0))
	}
}

func TestMortonOrderingLocality(t *testing.T) {
	// Keys of nearby integer coordinates share long prefixes: the key
	// of (2^20, ...) differs from (2^20−1, ...) at high bits, but keys
	// within one octant sort before keys of the next octant.
	loOctant := MortonKey(0x0fffff, 0x0fffff, 0x0fffff)
	hiOctant := MortonKey(0x100000, 0, 0)
	if loOctant >= hiOctant {
		t.Fatalf("octant ordering violated: %x >= %x", loOctant, hiOctant)
	}
}

func TestDomainKeyClamps(t *testing.T) {
	d := NewDomain(vec.V3(0, 0, 0), vec.V3(1, 1, 1))
	inside := d.Key(vec.V3(0.5, 0.5, 0.5))
	if inside == 0 {
		t.Fatal("interior point mapped to key 0")
	}
	// Outside points clamp instead of wrapping.
	if d.Key(vec.V3(-5, 0.5, 0.5)) > inside {
		t.Fatal("clamped low key should sort before center")
	}
	_ = d.Key(vec.V3(99, 99, 99)) // must not panic
}

func TestDomainCellCenter(t *testing.T) {
	d := Domain{Lo: vec.V3(0, 0, 0), Size: 8}
	c := d.CellCenter(0, 0)
	if c.Sub(vec.V3(4, 4, 4)).Norm() > 1e-12 {
		t.Fatalf("root center %v", c)
	}
	// Level-1 cell 0 is the low octant.
	c = d.CellCenter(0, 1)
	if c.Sub(vec.V3(2, 2, 2)).Norm() > 1e-12 {
		t.Fatalf("octant-0 center %v", c)
	}
	// The child digit of a key in the +x low octant is 1.
	key := d.Key(vec.V3(5, 1, 1))
	if ChildDigit(key, 0) != 1 {
		t.Fatalf("digit = %d", ChildDigit(key, 0))
	}
}

func TestBuildInvariants(t *testing.T) {
	for _, leafCap := range []int{1, 4, 16} {
		sys := particle.RandomVortexBlob(500, 0.1, 3)
		tr := Build(sys, BuildConfig{LeafCap: leafCap, Discipline: Vortex})
		if err := tr.Check(); err != nil {
			t.Fatalf("leafCap=%d: %v", leafCap, err)
		}
		if tr.Nodes[tr.Root].Count != 500 {
			t.Fatalf("root count %d", tr.Nodes[tr.Root].Count)
		}
		for i := range tr.Nodes {
			nd := &tr.Nodes[i]
			if nd.Leaf && nd.Count > leafCap && nd.Level < KeyBits {
				t.Fatalf("leaf with %d > %d particles at level %d", nd.Count, leafCap, nd.Level)
			}
		}
	}
}

func TestBuildSortedKeys(t *testing.T) {
	sys := particle.RandomVortexBlob(300, 0.1, 4)
	tr := Build(sys, BuildConfig{LeafCap: 1, Discipline: Vortex})
	for i := 1; i < len(tr.Keys); i++ {
		if tr.Keys[i] < tr.Keys[i-1] {
			t.Fatal("keys not sorted")
		}
	}
	// Order must be a permutation.
	seen := make([]bool, sys.N())
	for _, idx := range tr.Order {
		if seen[idx] {
			t.Fatal("Order not a permutation")
		}
		seen[idx] = true
	}
}

func TestRootMomentsMatchTotals(t *testing.T) {
	sys := particle.RandomVortexBlob(200, 0.1, 5)
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex})
	var circ vec.Vec3
	for _, p := range sys.Particles {
		circ = circ.Add(p.Alpha)
	}
	root := &tr.Nodes[tr.Root]
	if root.CircSum.Sub(circ).Norm() > 1e-12*(1+circ.Norm()) {
		t.Fatalf("root circulation %v, want %v", root.CircSum, circ)
	}
	// Dipole about the root centroid must match the direct sum.
	var dip vec.Mat3
	for _, p := range sys.Particles {
		dip = dip.Add(vec.Outer(p.Pos.Sub(root.Centroid), p.Alpha))
	}
	if root.Dipole.Sub(dip).FrobeniusNorm() > 1e-10*(1+dip.FrobeniusNorm()) {
		t.Fatalf("root dipole mismatch:\n%v\nvs\n%v", root.Dipole, dip)
	}
}

func TestCoulombRootMoments(t *testing.T) {
	sys := particle.HomogeneousCoulomb(100, 6)
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Coulomb})
	root := &tr.Nodes[tr.Root]
	q := 0.0
	for _, p := range sys.Particles {
		q += p.Charge
	}
	if math.Abs(root.Charge-q) > 1e-12 {
		t.Fatalf("root charge %v, want %v", root.Charge, q)
	}
	// Direct dipole and quadrupole about the root centroid.
	var d vec.Vec3
	var quad vec.Mat3
	for _, p := range sys.Particles {
		r := p.Pos.Sub(root.Centroid)
		d = d.AddScaled(p.Charge, r)
		o := vec.Outer(r, r).Scale(3 * p.Charge)
		r2 := r.Norm2()
		o[0][0] -= p.Charge * r2
		o[1][1] -= p.Charge * r2
		o[2][2] -= p.Charge * r2
		quad = quad.Add(o)
	}
	if root.DipoleQ.Sub(d).Norm() > 1e-10*(1+d.Norm()) {
		t.Fatalf("root dipole %v, want %v", root.DipoleQ, d)
	}
	if root.QuadQ.Sub(quad).FrobeniusNorm() > 1e-9*(1+quad.FrobeniusNorm()) {
		t.Fatalf("root quadrupole mismatch")
	}
	if math.Abs(root.QuadQ.Trace()) > 1e-10 {
		t.Fatalf("quadrupole not traceless: trace %v", root.QuadQ.Trace())
	}
}

func TestThetaZeroMatchesDirect(t *testing.T) {
	sys := particle.RandomVortexBlob(80, 0.3, 7)
	ts := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0)
	ds := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
	velT := make([]vec.Vec3, sys.N())
	strT := make([]vec.Vec3, sys.N())
	velD := make([]vec.Vec3, sys.N())
	strD := make([]vec.Vec3, sys.N())
	ts.Eval(sys, velT, strT)
	ds.Eval(sys, velD, strD)
	for i := range velT {
		if velT[i].Sub(velD[i]).Norm() > 1e-12*(1+velD[i].Norm()) {
			t.Fatalf("vel[%d]: tree %v direct %v", i, velT[i], velD[i])
		}
		if strT[i].Sub(strD[i]).Norm() > 1e-12*(1+strD[i].Norm()) {
			t.Fatalf("stretch[%d]: tree %v direct %v", i, strT[i], strD[i])
		}
	}
}

// treeError returns the max relative velocity error of the tree at the
// given θ against direct summation.
func treeError(t *testing.T, theta float64, dipole bool) float64 {
	t.Helper()
	sys := particle.SphericalVortexSheet(particle.DefaultSheet(400))
	ts := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
	ts.Dipole = dipole
	ds := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
	velT := make([]vec.Vec3, sys.N())
	strT := make([]vec.Vec3, sys.N())
	velD := make([]vec.Vec3, sys.N())
	strD := make([]vec.Vec3, sys.N())
	ts.Eval(sys, velT, strT)
	ds.Eval(sys, velD, strD)
	maxErr, maxRef := 0.0, 0.0
	for i := range velT {
		maxErr = math.Max(maxErr, velT[i].Sub(velD[i]).Norm())
		maxRef = math.Max(maxRef, velD[i].Norm())
	}
	return maxErr / maxRef
}

func TestErrorDecreasesWithTheta(t *testing.T) {
	e6 := treeError(t, 0.6, true)
	e3 := treeError(t, 0.3, true)
	e1 := treeError(t, 0.1, true)
	if !(e1 < e3 && e3 < e6) {
		t.Fatalf("errors not monotone in θ: %g %g %g", e1, e3, e6)
	}
	if e3 > 1e-2 {
		t.Fatalf("θ=0.3 error %g unreasonably large", e3)
	}
}

func TestDipoleImprovesAccuracy(t *testing.T) {
	with := treeError(t, 0.6, true)
	without := treeError(t, 0.6, false)
	if with >= without {
		t.Fatalf("dipole correction should reduce error: with %g, without %g", with, without)
	}
}

func TestFewerInteractionsWithLargerTheta(t *testing.T) {
	// The basis of the paper's θ-coarsening: θ=0.6 does substantially
	// less work than θ=0.3.
	sys := particle.SphericalVortexSheet(particle.DefaultSheet(2000))
	fine := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3)
	coarse := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.6)
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	fine.Eval(sys, vel, str)
	coarse.Eval(sys, vel, str)
	fi := fine.Stats().Interactions
	ci := coarse.Stats().Interactions
	if ci >= fi {
		t.Fatalf("coarse interactions %d >= fine %d", ci, fi)
	}
	ratio := float64(fi) / float64(ci)
	if ratio < 1.5 {
		t.Fatalf("interaction ratio %.2f too small for θ 0.3→0.6", ratio)
	}
}

func TestTreeComplexityNLogN(t *testing.T) {
	// Interactions per particle should grow slowly (log-like), not
	// linearly, as N grows.
	perParticle := func(n int) float64 {
		sys := particle.RandomVortexBlob(n, 0.1, 11)
		s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.5)
		vel := make([]vec.Vec3, n)
		str := make([]vec.Vec3, n)
		s.Eval(sys, vel, str)
		return float64(s.Stats().Interactions) / float64(n)
	}
	small := perParticle(500)
	large := perParticle(4000)
	if large > 4*small {
		t.Fatalf("interactions/particle grew from %.0f to %.0f (×%.1f): not O(N log N)",
			small, large, large/small)
	}
}

func TestCoulombTreeMatchesDirect(t *testing.T) {
	sys := particle.HomogeneousCoulomb(300, 12)
	const eps = 0.02
	ts := NewSolver(kernel.Algebraic2(), kernel.Transpose, 0.3)
	ds := direct.New(kernel.Algebraic2(), kernel.Transpose, 0)
	potT := make([]float64, sys.N())
	fT := make([]vec.Vec3, sys.N())
	potD := make([]float64, sys.N())
	fD := make([]vec.Vec3, sys.N())
	ts.Coulomb(sys, eps, potT, fT)
	ds.Coulomb(sys, eps, potD, fD)
	maxPhiErr, maxPhi := 0.0, 0.0
	maxFErr, maxF := 0.0, 0.0
	for i := range potT {
		maxPhiErr = math.Max(maxPhiErr, math.Abs(potT[i]-potD[i]))
		maxPhi = math.Max(maxPhi, math.Abs(potD[i]))
		maxFErr = math.Max(maxFErr, fT[i].Sub(fD[i]).Norm())
		maxF = math.Max(maxF, fD[i].Norm())
	}
	if maxPhiErr/maxPhi > 2e-3 {
		t.Fatalf("potential error %g", maxPhiErr/maxPhi)
	}
	if maxFErr/maxF > 2e-2 {
		t.Fatalf("field error %g", maxFErr/maxF)
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(&particle.System{}, BuildConfig{})
}

func TestSingleParticleTree(t *testing.T) {
	sys := &particle.System{Sigma: 1, Particles: []particle.Particle{
		{Pos: vec.V3(0.5, 0.5, 0.5), Alpha: vec.V3(0, 0, 1)},
	}}
	tr := Build(sys, BuildConfig{LeafCap: 1, Discipline: Vortex})
	if !tr.Nodes[tr.Root].Leaf {
		t.Fatal("single particle should be a leaf root")
	}
	res := tr.vortexAt(int32(tr.Root), vec.V3(2, 2, 2), 0.5, -1, algebraic6Batch(1), true)
	if res.U.Norm() == 0 {
		t.Fatal("expected nonzero induced velocity")
	}
}

func TestCoincidentParticles(t *testing.T) {
	// Particles at identical positions must not break the build (the
	// level cap bounds recursion).
	ps := make([]particle.Particle, 20)
	for i := range ps {
		ps[i] = particle.Particle{Pos: vec.V3(0.25, 0.5, 0.75), Alpha: vec.V3(0, 0, 1e-3)}
	}
	ps = append(ps, particle.Particle{Pos: vec.V3(0.9, 0.9, 0.9), Alpha: vec.V3(1e-3, 0, 0)})
	sys := &particle.System{Sigma: 0.1, Particles: ps}
	tr := Build(sys, BuildConfig{LeafCap: 1, Discipline: Vortex})
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if d := depth(tr); d > KeyBits {
		t.Fatalf("depth %d exceeds key bits", d)
	}
}

// depth returns the maximum node level of tr.
func depth(tr *Tree) int {
	d := 0
	for i := range tr.Nodes {
		d = max(d, tr.Nodes[i].Level)
	}
	return d
}

func TestDepthReasonable(t *testing.T) {
	sys := particle.RandomVortexBlob(1000, 0.1, 13)
	tr := Build(sys, BuildConfig{LeafCap: 1, Discipline: Vortex})
	if d := depth(tr); d < 3 || d > KeyBits {
		t.Fatalf("depth %d out of expected range", d)
	}
}

func TestMACBoundary(t *testing.T) {
	if MACSq(0.5*0.5, 1, 1.9*1.9) {
		t.Fatal("s/d = 0.53 > 0.5 must not be accepted")
	}
	if !MACSq(0.5*0.5, 1, 2.1*2.1) {
		t.Fatal("s/d = 0.48 <= 0.5 must be accepted")
	}
	if !MACSq(0.5*0.5, 1, 2*2) {
		t.Fatal("s/d = 0.5 exactly must be accepted")
	}
	if MACSq(0.5*0.5, 1, 0) {
		t.Fatal("zero distance must never be accepted")
	}
	if MACSq(0, 1, 100*100) {
		t.Fatal("θ=0 must never accept")
	}
}

func TestSolverName(t *testing.T) {
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3)
	if s.Name() != "tree/algebraic6/theta=0.30" {
		t.Fatalf("name %q", s.Name())
	}
}

func randPoints(n int, seed int64) []vec.Vec3 {
	r := rand.New(rand.NewSource(seed))
	out := make([]vec.Vec3, n)
	for i := range out {
		out[i] = vec.V3(r.Float64(), r.Float64(), r.Float64())
	}
	return out
}

func TestMortonSortMatchesKeySort(t *testing.T) {
	// Property: sorting positions by Morton key groups each octant
	// contiguously.
	d := NewDomain(vec.V3(0, 0, 0), vec.V3(1, 1, 1))
	pts := randPoints(200, 17)
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = d.Key(p)
	}
	// For each pair in sorted order, the first differing octant digit
	// must be increasing.
	_ = keys
	sys := &particle.System{Sigma: 1, Particles: make([]particle.Particle, len(pts))}
	for i, p := range pts {
		sys.Particles[i] = particle.Particle{Pos: p, Alpha: vec.V3(0, 0, 1)}
	}
	tr := Build(sys, BuildConfig{LeafCap: 1, Discipline: Vortex})
	for i := 1; i < len(tr.Keys); i++ {
		if tr.Keys[i-1] > tr.Keys[i] {
			t.Fatal("sorted keys out of order")
		}
	}
}

func BenchmarkTreeEvalSheet2k(b *testing.B) {
	sys := particle.SphericalVortexSheet(particle.DefaultSheet(2000))
	s := NewSolver(kernel.Algebraic6(), kernel.Transpose, 0.3)
	vel := make([]vec.Vec3, sys.N())
	str := make([]vec.Vec3, sys.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(sys, vel, str)
	}
}

// BenchmarkTreeEvalSheet448 times one evaluation (build + walk) of a
// 448-particle sheet, pt4_sheet's input, on one worker at the paper's
// fine and coarse θ. Its walks meet 2–3 sources per item, so what
// surrounds each item shows here; the 2k row averages about five.
func BenchmarkTreeEvalSheet448(b *testing.B) {
	for _, theta := range []float64{0.3, 0.6} {
		b.Run(fmt.Sprintf("theta=%g", theta), func(b *testing.B) {
			sys := particle.SphericalVortexSheet(particle.ScaledSheet(448))
			s := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
			s.Workers = 1
			vel := make([]vec.Vec3, sys.N())
			str := make([]vec.Vec3, sys.N())
			b.ResetTimer()
			for range b.N {
				s.Eval(sys, vel, str)
			}
		})
	}
}

func BenchmarkTreeBuild10k(b *testing.B) {
	sys := particle.RandomVortexBlob(10000, 0.1, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	sys := particle.RandomVortexBlob(100, 0.2, 101)
	build := func() *Tree {
		return Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex})
	}
	// Baseline: a fresh tree passes.
	if err := build().Check(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a child count.
	tr := build()
	for i := range tr.Nodes {
		if !tr.Nodes[i].Leaf {
			for _, ci := range tr.Nodes[i].Children {
				if ci >= 0 {
					tr.Nodes[ci].Count++
					if err := tr.Check(); err == nil {
						t.Fatal("count corruption not detected")
					}
					tr.Nodes[ci].Count--
					break
				}
			}
			break
		}
	}
	// Corrupt a child level.
	tr2 := build()
	for i := range tr2.Nodes {
		if !tr2.Nodes[i].Leaf {
			for _, ci := range tr2.Nodes[i].Children {
				if ci >= 0 {
					tr2.Nodes[ci].Level += 3
					if err := tr2.Check(); err == nil {
						t.Fatal("level corruption not detected")
					}
					tr2.Nodes[ci].Level -= 3
					break
				}
			}
			break
		}
	}
	// Corrupt a child's starting offset.
	tr3 := build()
	for i := range tr3.Nodes {
		if !tr3.Nodes[i].Leaf {
			for _, ci := range tr3.Nodes[i].Children {
				if ci >= 0 {
					tr3.Nodes[ci].First++
					if err := tr3.Check(); err == nil {
						t.Fatal("offset corruption not detected")
					}
					break
				}
			}
			break
		}
	}
}

func TestFindCellMissesGracefully(t *testing.T) {
	sys := particle.RandomVortexBlob(50, 0.2, 103)
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex})
	// A deep cell below a leaf does not exist.
	var leafPKey uint64
	for i := range tr.Nodes {
		if tr.Nodes[i].Leaf {
			leafPKey = tr.Nodes[i].PKey()
			break
		}
	}
	if got := tr.FindCell(leafPKey<<3 | 3); got != -1 {
		t.Fatalf("FindCell below a leaf returned %d", got)
	}
	if got := tr.FindCell(1); got != tr.Root {
		t.Fatalf("FindCell(root) = %d", got)
	}
}

func TestCoulombSolverParallelWorkers(t *testing.T) {
	sys := particle.HomogeneousCoulomb(200, 107)
	s1 := NewSolver(kernel.Algebraic2(), kernel.Transpose, 0.4)
	s1.Workers = 1
	s4 := NewSolver(kernel.Algebraic2(), kernel.Transpose, 0.4)
	s4.Workers = 4
	p1 := make([]float64, 200)
	f1 := make([]vec.Vec3, 200)
	p4 := make([]float64, 200)
	f4 := make([]vec.Vec3, 200)
	s1.Coulomb(sys, 0.01, p1, f1)
	s4.Coulomb(sys, 0.01, p4, f4)
	for i := range p1 {
		if p1[i] != p4[i] || f1[i] != f4[i] {
			t.Fatalf("worker count changed results at %d", i)
		}
	}
	if s1.LastTree == nil {
		t.Fatal("LastTree not recorded")
	}
}
