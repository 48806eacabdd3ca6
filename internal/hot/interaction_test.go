package hot

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// sameWork reports whether two evaluations did identical work.
func sameWork(a, b Stats) bool {
	return a.Interactions == b.Interactions && a.MACAccepts == b.MACAccepts &&
		a.MACRejects == b.MACRejects && a.Prefetched == b.Prefetched
}

// TestListMatchesRecursiveAcrossRanks: the interaction-list traversal
// (the default) must be bitwise identical to the per-particle
// recursive traversal — results AND work counters — at any rank count
// and θ, over the same prefetch set (the conservative group walk opens
// only cells every particle would open).
func TestListMatchesRecursiveAcrossRanks(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(500))
	for _, p := range []int{1, 2, 3, 5} {
		for _, theta := range []float64{0, 0.45} {
			cfgList := defaultCfg(theta)
			cfgList.Traversal = tree.TraversalList
			cfgRec := cfgList
			cfgRec.Traversal = tree.TraversalRecursive
			velL, strL, stL := runEval(t, full, p, cfgList)
			velR, strR, stR := runEval(t, full, p, cfgRec)
			for i := range velL {
				if velL[i] != velR[i] || strL[i] != strR[i] {
					t.Fatalf("p=%d θ=%.2f: particle %d differs: list %v/%v recursive %v/%v",
						p, theta, i, velL[i], strL[i], velR[i], strR[i])
				}
			}
			if !sameWork(stL, stR) {
				t.Fatalf("p=%d θ=%.2f: counters differ: list %+v recursive %+v", p, theta, stL, stR)
			}
		}
	}
}

// TestSingleRankIsTreeSolver: at PS = 1 the locally essential tree is
// the local tree, so hot is tree.Solver on the same system — bitwise,
// with the same interaction count — whatever the worker count and
// traversal, for both disciplines. The coincident input puts 57
// triples of particles on one position each: equal Morton keys, whose
// order both sorts must break by index alike, or the sums of a leaf
// run in another order. Each group stays below LeafCap + 1 particles,
// where hot's ownership-bounded build and tree.Solver cut the same
// leaves.
func TestSingleRankIsTreeSolver(t *testing.T) {
	sheet := particle.SphericalVortexSheet(particle.DefaultSheet(400))
	for i := range sheet.Particles {
		sheet.Particles[i].Charge = 1 - 2*float64(i%2)
	}
	coincident := sheet.Clone()
	for k := 0; k < 57; k++ {
		p := coincident.Particles[7*k : 7*k+3]
		p[1].Pos, p[2].Pos = p[0].Pos, p[0].Pos
	}
	const eps = 0.01
	for _, in := range []struct {
		name string
		full *particle.System
	}{{"sheet", sheet}, {"coincident", coincident}} {
		full := in.full
		n := full.N()
		for _, trav := range []tree.TraversalMode{tree.TraversalList, tree.TraversalRecursive} {
			for _, threads := range []int{0, 3} {
				cfg := defaultCfg(0.4)
				cfg.Eps = eps
				cfg.Traversal = trav
				cfg.Threads = threads
				ts := tree.NewSolver(cfg.Sm, cfg.Scheme, cfg.Theta)
				ts.Traversal = trav
				ts.Workers = max(1, threads)
				want := [4][]vec.Vec3{make([]vec.Vec3, n), make([]vec.Vec3, n), make([]vec.Vec3, n), make([]vec.Vec3, n)}
				got := [4][]vec.Vec3{make([]vec.Vec3, n), make([]vec.Vec3, n), make([]vec.Vec3, n), make([]vec.Vec3, n)}
				wantPot, gotPot := make([]float64, n), make([]float64, n)
				ts.Eval(full, want[0], want[1])
				treeInter := ts.Stats().Interactions
				ts.Coulomb(full, eps, wantPot, want[2])
				var hotInter int64
				err := mpi.Run(1, func(c *mpi.Comm) error {
					s := New(c, cfg)
					s.Eval(full, got[0], got[1])
					hotInter = s.Last.Interactions
					s.Coulomb(full, gotPot, got[2])
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("%s %v threads=%d", in.name, trav, threads)
				for i := 0; i < n; i++ {
					if got[0][i] != want[0][i] || got[1][i] != want[1][i] || got[2][i] != want[2][i] || gotPot[i] != wantPot[i] {
						t.Fatalf("%s: particle %d: hot (%v, %v, %v, %v) != tree.Solver (%v, %v, %v, %v)", id, i,
							got[0][i], got[1][i], gotPot[i], got[2][i], want[0][i], want[1][i], wantPot[i], want[2][i])
					}
				}
				if hotInter != treeInter {
					t.Fatalf("%s: hot counted %d interactions, tree.Solver %d", id, hotInter, treeInter)
				}
			}
		}
	}
}

// TestHybridListStealingDeterminism: with the work-stealing scheduler
// active (Threads > 1) the results must stay bitwise identical to the
// synchronous run, over repeated evaluations — the schedule varies,
// the sums do not. At this size tree.Solver's automatic steal grain is
// a single tile, so every chunk a worker claims or steals is one tile
// of eight targets.
func TestHybridListStealingDeterminism(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(400))
	cfgSync := defaultCfg(0.4)
	velS, strS, _ := runEval(t, full, 2, cfgSync)
	cfgHyb := defaultCfg(0.4)
	cfgHyb.Threads = 4
	for rep := 0; rep < 3; rep++ {
		velH, strH, _ := runEval(t, full, 2, cfgHyb)
		for i := range velH {
			if velH[i] != velS[i] || strH[i] != strS[i] {
				t.Fatalf("rep %d: hybrid stealing changed particle %d: %v vs %v", rep, i, velH[i], velS[i])
			}
		}
	}
}

// TestCoulombListMatchesRecursive: same bitwise agreement for the
// Coulomb discipline — list ≡ recursive with remote cells in play,
// results and every rank's work counters.
func TestCoulombListMatchesRecursive(t *testing.T) {
	full := particle.HomogeneousCoulomb(300, 5)
	run := func(p int, mode tree.TraversalMode) ([]float64, []vec.Vec3, []Stats) {
		n := full.N()
		pot := make([]float64, n)
		f := make([]vec.Vec3, n)
		stats := make([]Stats, p)
		err := mpi.Run(p, func(c *mpi.Comm) error {
			local := BlockPartition(full, c.Rank(), p)
			lp := make([]float64, local.N())
			lf := make([]vec.Vec3, local.N())
			cfg := defaultCfg(0.5)
			cfg.Eps = 0.01
			cfg.Traversal = mode
			s := New(c, cfg)
			s.Coulomb(local, lp, lf)
			stats[c.Rank()] = s.Last
			base := n * c.Rank() / p
			copy(pot[base:], lp)
			copy(f[base:], lf)
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return pot, f, stats
	}
	for _, p := range []int{2, 3} {
		potRef, fRef, stRef := run(p, tree.TraversalList)
		potR, fR, stR := run(p, tree.TraversalRecursive)
		for i := range potRef {
			if potRef[i] != potR[i] || fRef[i] != fR[i] {
				t.Fatalf("p=%d: particle %d differs: list %v/%v recursive %v/%v",
					p, i, potRef[i], fRef[i], potR[i], fR[i])
			}
		}
		for r := range stRef {
			if !sameWork(stRef[r], stR[r]) {
				t.Fatalf("p=%d rank %d: counters differ: list %+v recursive %+v", p, r, stRef[r], stR[r])
			}
		}
		if p == 3 && runtime.GOARCH == "amd64" {
			// Cross-commit pin: list ≡ recursive compares this commit
			// with itself; the hash of the PS = 3 result is what a
			// storage-only change must reproduce. Last re-pinned when
			// the locally essential tree became one grafted tree.Tree,
			// which sums each target into one accumulator instead of
			// adding the local branch cells' sub-results to a running
			// sum — same terms, same order, same counts, different
			// association. The value before was 0xb2868139d8250f7e, from
			// 24e9cfc. amd64 only: arm64 fuses multiply-add.
			h := fnv.New64a()
			var b [8]byte
			for i := range potRef {
				for _, v := range [4]float64{potRef[i], fRef[i].X, fRef[i].Y, fRef[i].Z} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			const want uint64 = 0xeefc4a9c6cad4e7e
			if got := h.Sum64(); got != want {
				t.Fatalf("p=3 result hash %#x, want %#x (pinned at the graft)", got, want)
			}
		}
	}
}
