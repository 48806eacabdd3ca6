package hot

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/direct"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// ringOf returns cfg with the ring allgather in place of the default.
func ringOf(cfg Config) Config {
	cfg.Branch = BranchRing
	return cfg
}

// TestBatchedBranchBitwiseEqualsRing is the equivalence property of
// the two allgathers: they deliver the same boxes and branch lists, so
// both modes prefetch the same cells and must agree bit for bit — not
// just to rounding — on every output, for vortex and Coulomb alike.
func TestBatchedBranchBitwiseEqualsRing(t *testing.T) {
	full := particle.ClusteredVortexSheet(400)
	for _, p := range []int{1, 2, 4, 7} {
		bat := defaultCfg(0.4)
		vr, sr, ringStats := runEval(t, full, p, ringOf(bat))
		vb, sb, batStats := runEval(t, full, p, bat)
		for i := range vr {
			if vr[i] != vb[i] || sr[i] != sb[i] {
				t.Fatalf("p=%d particle %d: ring (%v, %v) != batched (%v, %v)",
					p, i, vr[i], sr[i], vb[i], sb[i])
			}
		}
		if ringStats.Prefetched != batStats.Prefetched {
			t.Fatalf("p=%d: ring prefetched %d cells, batched %d", p, ringStats.Prefetched, batStats.Prefetched)
		}
		if p > 1 && batStats.Prefetched == 0 {
			t.Fatalf("p=%d: no cell prefetched; system too small to exercise the exchange", p)
		}
	}
}

// runCoulomb is runEval for the Coulomb discipline.
func runCoulomb(t *testing.T, full *particle.System, p int, cfg Config) []float64 {
	t.Helper()
	n := full.N()
	pot := make([]float64, n)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), p)
		lp := make([]float64, local.N())
		lf := make([]vec.Vec3, local.N())
		s := New(c, cfg)
		s.Coulomb(local, lp, lf)
		copy(pot[n*c.Rank()/p:], lp)
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pot
}

func TestBatchedBranchCoulombBitwise(t *testing.T) {
	full := particle.ClusteredVortexSheet(300)
	for i := range full.Particles {
		full.Particles[i].Charge = 1.0 / float64(full.N())
	}
	for _, p := range []int{2, 5} {
		bat := defaultCfg(0.4)
		bat.Eps = 1e-3
		pr := runCoulomb(t, full, p, ringOf(bat))
		pb := runCoulomb(t, full, p, bat)
		for i := range pr {
			if pr[i] != pb[i] {
				t.Fatalf("p=%d particle %d: ring pot %v != batched %v", p, i, pr[i], pb[i])
			}
		}
	}
}

// TestBatchedBranchHybridBitwise runs the batched exchange under the
// threaded traversal against the single-threaded ring reference.
func TestBatchedBranchHybridBitwise(t *testing.T) {
	full := particle.ClusteredVortexSheet(400)
	const p = 3
	ring := ringOf(defaultCfg(0.4))
	bat := defaultCfg(0.4)
	bat.Threads = 3
	bat.Traversal = tree.TraversalList
	vr, sr, _ := runEval(t, full, p, ring)
	vb, sb, _ := runEval(t, full, p, bat)
	for i := range vr {
		if vr[i] != vb[i] || sr[i] != sb[i] {
			t.Fatalf("particle %d: sync ring (%v, %v) != hybrid batched (%v, %v)",
				i, vr[i], sr[i], vb[i], sb[i])
		}
	}
}

// TestBatchedBranchUnevenDistribution covers empty and near-empty
// ranks: boxes of empty receivers are skipped and senders without a
// local tree ship nothing.
func TestBatchedBranchUnevenDistribution(t *testing.T) {
	// All particles in one octant: several ranks end up empty.
	full := particle.RandomVortexBlob(60, 0.05, 9)
	for _, p := range []int{4, 6} {
		bat := defaultCfg(0.5)
		vr, _, _ := runEval(t, full, p, ringOf(bat))
		vb, _, _ := runEval(t, full, p, bat)
		for i := range vr {
			if vr[i] != vb[i] {
				t.Fatalf("p=%d particle %d: %v != %v", p, i, vr[i], vb[i])
			}
		}
	}
}

// TestPrefetchIsConservative sweeps the cases in which the prefetch is
// the only way a remote cell reaches a rank: no traversal may meet an
// unresolved cell (a typed panic, and a failed rank), and the result
// must still be the tree code's — direct summation to rounding at
// θ = 0, where every shipped cell is opened, and within the MAC's error
// beyond. Balanced rows evaluate twice: the second decomposition uses
// the first one's work weights. The softening is far below the
// particle spacing: the far field of a remote cell is unsoftened.
func TestPrefetchIsConservative(t *testing.T) {
	blob := particle.RandomVortexBlob(180, 0.2, 61)
	clustered := particle.ClusteredVortexSheet(180)
	for _, full := range []*particle.System{blob, clustered} {
		for i := range full.Particles {
			full.Particles[i].Charge = 1 - 2*float64(i%2)
		}
	}
	const eps = 1e-3
	// Largest error relative to the largest reference value.
	tol := map[float64]float64{0: 1e-10, 0.3: 2e-2, 0.6: 2e-2, 1: 0.1}
	for name, full := range map[string]*particle.System{"blob": blob, "clustered": clustered} {
		n := full.N()
		ds := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
		wantV, wantS := make([]vec.Vec3, n), make([]vec.Vec3, n)
		ds.Eval(full, wantV, wantS)
		wantP, wantE := make([]float64, n), make([]vec.Vec3, n)
		ds.Coulomb(full, eps, wantP, wantE)
		maxV, maxE := 0.0, 0.0
		for i := range wantV {
			maxV = math.Max(maxV, wantV[i].Norm())
			maxE = math.Max(maxE, wantE[i].Norm())
		}
		for _, p := range []int{2, 3, 4, 5} {
			for theta, rel := range tol {
				for _, disc := range []tree.Discipline{tree.Vortex, tree.Coulomb} {
					for _, trav := range []tree.TraversalMode{tree.TraversalList, tree.TraversalRecursive} {
						for _, threads := range []int{0, 3} {
							for _, balance := range []bool{false, true} {
								cfg := defaultCfg(theta)
								cfg.Eps = eps
								cfg.Traversal = trav
								cfg.Threads = threads
								cfg.WeightedBalance = balance
								got := make([]vec.Vec3, n) // velocity or field
								err := mpi.Run(p, func(c *mpi.Comm) error {
									local := BlockPartition(full, c.Rank(), p)
									s := New(c, cfg)
									out, aux := make([]vec.Vec3, local.N()), make([]vec.Vec3, local.N())
									pot := make([]float64, local.N())
									for evals := 0; evals < 1 || (balance && evals < 2); evals++ {
										if disc == tree.Vortex {
											s.Eval(local, out, aux)
										} else {
											s.Coulomb(local, pot, out)
										}
									}
									lo, _ := BlockRange(n, c.Rank(), p)
									copy(got[lo:], out)
									c.Barrier()
									return nil
								})
								id := fmt.Sprintf("%s p=%d θ=%g disc=%d %v threads=%d balance=%v", name, p, theta, disc, trav, threads, balance)
								if err != nil {
									t.Fatalf("%s: %v", id, err)
								}
								want, scale := wantV, maxV
								if disc == tree.Coulomb {
									want, scale = wantE, maxE
								}
								if name == "clustered" && disc == tree.Vortex && theta > 0 {
									// The cascade's clusters are smaller than σ: the
									// far field of the tree itself (one rank included)
									// is off by more than any MAC tolerance here.
									continue
								}
								for i := range got {
									if d := got[i].Sub(want[i]).Norm(); !(d <= rel*scale) {
										t.Fatalf("%s: particle %d is off by %g (%g of the largest value), tolerance %g",
											id, i, d, d/scale, rel)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestUnresolvedRemoteCellIsTypedPanic: the traversal has no way to
// ask for a cell, so reaching a remote cell the exchange did not
// resolve must stop the rank with a panic that names the cell, its
// owner and the rank — from either traversal of either discipline, on
// one goroutine or on worker goroutines, for a leaf (no particles) and
// an internal cell (no children) alike. The case is grafted by the
// production graft: rank 0's nine particles in octant 0, one per leaf
// (three tiles of targets, so three workers each reach the cell), and
// rank 1's branch cell in octant 5 arriving with no prefetch reply.
func TestUnresolvedRemoteCellIsTypedPanic(t *testing.T) {
	const childKey = 1<<3 | 5 // child 5 of the root
	type tc struct {
		leaf    bool
		disc    tree.Discipline
		trav    tree.TraversalMode
		threads int
	}
	var cases []tc
	for _, leaf := range []bool{true, false} {
		for _, disc := range []tree.Discipline{tree.Vortex, tree.Coulomb} {
			for _, trav := range []tree.TraversalMode{tree.TraversalList, tree.TraversalRecursive} {
				for _, threads := range []int{0, 3} {
					cases = append(cases, tc{leaf, disc, trav, threads})
				}
			}
		}
	}
	for _, c := range cases {
		cfg := defaultCfg(0)
		cfg.Traversal = c.trav
		cfg.Threads = c.threads
		cfg.LeafCap = 1
		s := New(nil, cfg)
		a := &s.arena
		a.reset(2)
		rt := &evalRT{s: s, a: a, me: 0, disc: c.disc, local: &a.local, stats: &s.Last,
			dom: tree.NewDomain(vec.V3(0, 0, 0), vec.V3(1, 1, 1))}
		a.local.Sigma = 0.1
		for k := range 9 {
			x := vec.V3(0.05+0.04*float64(k), 0.1+0.03*float64(k%3), 0.1+0.02*float64(k%2))
			a.local.Particles = append(a.local.Particles, particle.Particle{Pos: x, Alpha: vec.V3(0, 0, 1), Charge: 1})
		}
		rt.myLo, rt.myHi = tree.KeyRange(1 << 3) // octant 0
		rt.buildLocal()
		a.branches = appendBranchNodes(a.branches[:0], rt.ltree, rt.ltree.Root, rt.myLo, rt.myHi)
		var mine []byte
		for _, idx := range a.branches {
			mine = encodeCell(mine, &rt.ltree.Nodes[idx], c.disc)
		}
		prefix, level := tree.PKeyPrefix(childKey)
		remote := tree.Node{Prefix: prefix, Level: level, Count: 3, Leaf: c.leaf, Centroid: vec.V3(0.75, 0.25, 0.75)}
		rt.graft([][]byte{mine, encodeCell(nil, &remote, c.disc)}, nil)
		var got any
		func() {
			defer func() { got = recover() }()
			rt.traverse()
		}()
		want := unresolvedCell{pkey: childKey, owner: 1, rank: 0}
		if got != want {
			t.Fatalf("%+v: recovered %v, want %v", c, got, want)
		}
		if msg := want.Error(); !strings.Contains(msg, "rank 0") || !strings.Contains(msg, "cell d ") || !strings.Contains(msg, "rank 1") {
			t.Fatalf("message does not name the cell, its owner and the rank: %q", msg)
		}
	}
}
