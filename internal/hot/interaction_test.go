package hot

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// layouts is the layout dimension of the across-ranks tables: the AoS
// reference first, then SoA, which every production run uses.
var layouts = []particle.Layout{particle.LayoutAoS, particle.LayoutSoA}

// sameWork reports whether two evaluations did identical work.
func sameWork(a, b Stats) bool {
	return a.Interactions == b.Interactions && a.MACAccepts == b.MACAccepts &&
		a.MACRejects == b.MACRejects && a.Prefetched == b.Prefetched
}

// TestListMatchesRecursiveAcrossRanks: the interaction-list traversal
// (the default) must be bitwise identical to the per-particle
// recursive traversal — results AND work counters — at any rank count
// and θ, over the same prefetch set (the conservative group walk opens
// only cells every particle would open). Both must also be
// bitwise identical across particle layouts, remote cells included
// (p > 1): SoA is what production runs, AoS the reference.
func TestListMatchesRecursiveAcrossRanks(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(500))
	for _, p := range []int{1, 2, 3, 5} {
		for _, theta := range []float64{0, 0.45} {
			var velRef, strRef []vec.Vec3
			var stRef Stats
			for _, layout := range layouts {
				cfgList := defaultCfg(theta)
				cfgList.Layout = layout
				cfgList.Traversal = tree.TraversalList
				cfgRec := cfgList
				cfgRec.Traversal = tree.TraversalRecursive
				velL, strL, stL := runEval(t, full, p, cfgList)
				velR, strR, stR := runEval(t, full, p, cfgRec)
				if velRef == nil {
					velRef, strRef, stRef = velL, strL, stL
				}
				for i := range velL {
					if velL[i] != velR[i] || strL[i] != strR[i] {
						t.Fatalf("p=%d θ=%.2f %v: particle %d differs: list %v/%v recursive %v/%v",
							p, theta, layout, i, velL[i], strL[i], velR[i], strR[i])
					}
					if velL[i] != velRef[i] || strL[i] != strRef[i] {
						t.Fatalf("p=%d θ=%.2f: particle %d differs across layouts: %v %v/%v, %v %v/%v",
							p, theta, i, layout, velL[i], strL[i], layouts[0], velRef[i], strRef[i])
					}
				}
				if !sameWork(stL, stR) {
					t.Fatalf("p=%d θ=%.2f %v: counters differ: list %+v recursive %+v", p, theta, layout, stL, stR)
				}
				if !sameWork(stL, stRef) {
					t.Fatalf("p=%d θ=%.2f: counters differ across layouts: %v %+v, %v %+v",
						p, theta, layout, stL, layouts[0], stRef)
				}
			}
		}
	}
}

// TestHybridListStealingDeterminism: with the work-stealing scheduler
// active (Threads > 1) the results must stay bitwise identical to the
// synchronous run, over repeated evaluations — the schedule varies,
// the sums do not.
func TestHybridListStealingDeterminism(t *testing.T) {
	full := particle.SphericalVortexSheet(particle.DefaultSheet(400))
	cfgSync := defaultCfg(0.4)
	velS, strS, _ := runEval(t, full, 2, cfgSync)
	cfgHyb := defaultCfg(0.4)
	cfgHyb.Threads = 4
	for rep := 0; rep < 3; rep++ {
		velH, strH, _ := runEvalGrain(t, full, 2, cfgHyb, 1)
		for i := range velH {
			if velH[i] != velS[i] || strH[i] != strS[i] {
				t.Fatalf("rep %d: hybrid stealing changed particle %d: %v vs %v", rep, i, velH[i], velS[i])
			}
		}
	}
}

// TestCoulombListMatchesRecursive: same bitwise agreement for the
// Coulomb discipline — list ≡ recursive, and AoS ≡ SoA with remote
// cells in play.
func TestCoulombListMatchesRecursive(t *testing.T) {
	full := particle.HomogeneousCoulomb(300, 5)
	run := func(p int, layout particle.Layout, mode tree.TraversalMode) ([]float64, []vec.Vec3) {
		n := full.N()
		pot := make([]float64, n)
		f := make([]vec.Vec3, n)
		err := mpi.Run(p, func(c *mpi.Comm) error {
			local := BlockPartition(full, c.Rank(), p)
			lp := make([]float64, local.N())
			lf := make([]vec.Vec3, local.N())
			cfg := defaultCfg(0.5)
			cfg.Eps = 0.01
			cfg.Layout = layout
			cfg.Traversal = mode
			s := New(c, cfg)
			s.Coulomb(local, lp, lf)
			base := n * c.Rank() / p
			copy(pot[base:], lp)
			copy(f[base:], lf)
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return pot, f
	}
	for _, p := range []int{2, 3} {
		var potRef []float64
		var fRef []vec.Vec3
		for _, layout := range layouts {
			potL, fL := run(p, layout, tree.TraversalList)
			potR, fR := run(p, layout, tree.TraversalRecursive)
			if potRef == nil {
				potRef, fRef = potL, fL
			}
			for i := range potL {
				if potL[i] != potR[i] || fL[i] != fR[i] {
					t.Fatalf("p=%d %v: particle %d differs: list %v/%v recursive %v/%v",
						p, layout, i, potL[i], fL[i], potR[i], fR[i])
				}
				if potL[i] != potRef[i] || fL[i] != fRef[i] {
					t.Fatalf("p=%d: particle %d differs across layouts: %v %v/%v, %v %v/%v",
						p, i, layout, potL[i], fL[i], layouts[0], potRef[i], fRef[i])
				}
			}
		}
		if p == 3 && runtime.GOARCH == "amd64" {
			// Cross-commit pin: list ≡ recursive ≡ AoS ≡ SoA compares
			// this commit with itself; the hash of the PS = 3 result at
			// 24e9cfc (before the evaluation arena of PR 16) is what a
			// storage-only change must reproduce. amd64 only: arm64
			// fuses multiply-add.
			h := fnv.New64a()
			var b [8]byte
			for i := range potRef {
				for _, v := range [4]float64{potRef[i], fRef[i].X, fRef[i].Y, fRef[i].Z} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			const want uint64 = 0xb2868139d8250f7e
			if got := h.Sum64(); got != want {
				t.Fatalf("p=3 result hash %#x, want %#x (pinned at 24e9cfc)", got, want)
			}
		}
	}
}
