package tree

// Property tests pitting the Barnes-Hut evaluator against the O(N²)
// direct solver on randomized seeded systems. The tree at θ=0 never
// accepts a cluster, so up to floating-point summation order it IS the
// direct sum: every target must match to near machine precision. At
// the paper's propagator settings (θ=0.3 fine, θ=0.6 coarse) the error
// must stay bounded and shrink as θ tightens.

import (
	"math"
	"testing"

	"repro/internal/direct"
	"repro/internal/kernel"
	"repro/internal/particle"
	"repro/internal/vec"
)

// propThetas are the MAC parameters under test: exact, the paper's
// fine propagator, and the paper's coarse propagator.
var propThetas = []float64{0.0, 0.3, 0.6}

// skipLane translates an original particle index into its lane (-1:
// skip none). Order is a bijection, so lane sortedPos[skipOrig] is that
// particle.
func (t *Tree) skipLane(skipOrig int) int {
	if skipOrig < 0 {
		return -1
	}
	return int(t.sortedPos[skipOrig])
}

// vortexError evaluates tree-vs-direct on one seeded vortex system and
// returns the max relative errors of velocity and stretching.
func vortexError(sys *particle.System, theta float64) (velErr, strErr float64) {
	n := sys.N()
	ts := NewSolver(kernel.Algebraic6(), kernel.Transpose, theta)
	ds := direct.New(kernel.Algebraic6(), kernel.Transpose, 0)
	velT := make([]vec.Vec3, n)
	strT := make([]vec.Vec3, n)
	velD := make([]vec.Vec3, n)
	strD := make([]vec.Vec3, n)
	ts.Eval(sys, velT, strT)
	ds.Eval(sys, velD, strD)
	var maxV, refV, maxS, refS float64
	for i := 0; i < n; i++ {
		maxV = math.Max(maxV, velT[i].Sub(velD[i]).Norm())
		refV = math.Max(refV, velD[i].Norm())
		maxS = math.Max(maxS, strT[i].Sub(strD[i]).Norm())
		refS = math.Max(refS, strD[i].Norm())
	}
	return maxV / refV, maxS / refS
}

func TestPropertyVortexTreeVsDirect(t *testing.T) {
	// Across several seeds and sizes: θ=0 matches the direct sum to
	// near machine precision (not bitwise — the tree sums in Morton
	// order), and the error at θ>0 is bounded and monotone in θ.
	for _, n := range []int{64, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			sys := particle.RandomVortexBlob(n, 0.15, seed)
			errs := make([]float64, len(propThetas))
			for k, theta := range propThetas {
				velErr, strErr := vortexError(sys, theta)
				errs[k] = velErr
				switch {
				case theta == 0:
					if velErr > 1e-12 {
						t.Errorf("n=%d seed=%d θ=0: velocity error %g above machine-level", n, seed, velErr)
					}
					if strErr > 1e-11 {
						t.Errorf("n=%d seed=%d θ=0: stretching error %g above machine-level", n, seed, strErr)
					}
				default:
					if velErr > 5e-2 {
						t.Errorf("n=%d seed=%d θ=%.1f: velocity error %g unbounded", n, seed, theta, velErr)
					}
				}
			}
			if !(errs[0] <= errs[1] && errs[1] <= errs[2]*1.01) {
				// θ=0.3 vs θ=0.6 allows 1% slack: the max-norm error is
				// not strictly monotone pointwise, only in tendency.
				t.Errorf("n=%d seed=%d: errors not monotone in θ: %g %g %g", n, seed, errs[0], errs[1], errs[2])
			}
		}
	}
}

func TestPropertyThetaZeroIsDirectSum(t *testing.T) {
	// At θ=0 the MAC never accepts, so the traversal must visit every
	// other particle exactly once per target: Interactions = N(N−1)
	// and zero cluster interactions, for any seed.
	for seed := int64(11); seed <= 13; seed++ {
		sys := particle.RandomVortexBlob(150, 0.2, seed)
		n := sys.N()
		tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
		pw := algebraic6Batch(sys.Sigma)
		var inter, accepts int64
		for q := 0; q < n; q++ {
			res := tr.vortexAt(int32(tr.Root), sys.Particles[q].Pos, 0, tr.skipLane(q), pw, true)
			inter += res.Interactions
			accepts += res.CellAccepts
		}
		if accepts != 0 {
			t.Fatalf("seed=%d: θ=0 accepted %d clusters", seed, accepts)
		}
		if want := int64(n) * int64(n-1); inter != want {
			t.Fatalf("seed=%d: θ=0 interactions %d, want %d", seed, inter, want)
		}
	}
}

func TestPropertyMACCounterConsistency(t *testing.T) {
	// For any θ and seed the traversal counters satisfy:
	// Interactions = CellAccepts + particle–particle pairs, with
	// particle pairs ≤ N−1 per target (the direct-sum bound), and
	// every opened cell was counted as a reject.
	for _, theta := range propThetas {
		for seed := int64(21); seed <= 22; seed++ {
			sys := particle.RandomVortexBlob(200, 0.15, seed)
			n := sys.N()
			tr := Build(sys, BuildConfig{LeafCap: 8, Discipline: Vortex})
			pw := algebraic6Batch(sys.Sigma)
			for q := 0; q < n; q++ {
				res := tr.vortexAt(int32(tr.Root), sys.Particles[q].Pos, theta, tr.skipLane(q), pw, true)
				p2p := res.Interactions - res.CellAccepts
				if p2p < 0 {
					t.Fatalf("θ=%.1f seed=%d q=%d: negative p2p share", theta, seed, q)
				}
				if p2p > int64(n-1) {
					t.Fatalf("θ=%.1f seed=%d q=%d: p2p %d exceeds direct bound %d", theta, seed, q, p2p, n-1)
				}
				if theta == 0 && res.CellAccepts != 0 {
					t.Fatalf("seed=%d q=%d: θ=0 accepted a cluster", seed, q)
				}
				if res.CellAccepts > 0 && res.Rejects == 0 && !tr.Nodes[tr.Root].Leaf {
					// Accepting anything below the root requires having
					// opened (rejected) at least the root.
					t.Fatalf("θ=%.1f seed=%d q=%d: accepts without a reject", theta, seed, q)
				}
			}
		}
	}
}

func TestPropertyCoulombTreeVsDirect(t *testing.T) {
	const eps = 0.02
	for seed := int64(31); seed <= 33; seed++ {
		sys := particle.HomogeneousCoulomb(200, seed)
		n := sys.N()
		for _, theta := range propThetas {
			ts := NewSolver(kernel.Algebraic2(), kernel.Transpose, theta)
			ds := direct.New(kernel.Algebraic2(), kernel.Transpose, 0)
			potT := make([]float64, n)
			fT := make([]vec.Vec3, n)
			potD := make([]float64, n)
			fD := make([]vec.Vec3, n)
			ts.Coulomb(sys, eps, potT, fT)
			ds.Coulomb(sys, eps, potD, fD)
			var maxPhi, refPhi, maxF, refF float64
			for i := 0; i < n; i++ {
				maxPhi = math.Max(maxPhi, math.Abs(potT[i]-potD[i]))
				refPhi = math.Max(refPhi, math.Abs(potD[i]))
				maxF = math.Max(maxF, fT[i].Sub(fD[i]).Norm())
				refF = math.Max(refF, fD[i].Norm())
			}
			phiErr, fErr := maxPhi/refPhi, maxF/refF
			if theta == 0 {
				if phiErr > 1e-12 || fErr > 1e-12 {
					t.Errorf("seed=%d θ=0: coulomb errors φ=%g E=%g above machine-level", seed, phiErr, fErr)
				}
			} else if phiErr > 1e-2 || fErr > 1e-1 {
				t.Errorf("seed=%d θ=%.1f: coulomb errors φ=%g E=%g unbounded", seed, theta, phiErr, fErr)
			}
		}
	}
}
