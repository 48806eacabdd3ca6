package guard

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/particle"
	"repro/internal/tree"
)

// Words per node eligible for tree-domain injection: the multipole
// moment payload, exactly the fields CheckMoments verifies.
const (
	vortexWords  = 16 // CircSum 3, AbsCirc 1, Centroid 3, Dipole 9
	coulombWords = 17 // Charge 1, AbsCharge 1, Centroid 3, DipoleQ 3, QuadQ 9
)

func wordsPerNode(disc tree.Discipline) int {
	if disc == tree.Coulomb {
		return coulombWords
	}
	return vortexWords
}

// Words per SoA lane index eligible for tree-domain injection: the
// gathered per-particle payload that CheckLanes verifies against the
// particles it was gathered from.
const (
	vortexLaneWords  = 6 // X, Y, Z, AX, AY, AZ
	coulombLaneWords = 4 // X, Y, Z, Q
)

func wordsPerLane(disc tree.Discipline) int {
	if disc == tree.Coulomb {
		return coulombLaneWords
	}
	return vortexLaneWords
}

// laneWordPtr maps a word index within one SoA lane index to the lane
// element it addresses.
func laneWordPtr(l *particle.SoA, disc tree.Discipline, lane, w int) *float64 {
	if disc == tree.Coulomb {
		return [...]*float64{&l.X[lane], &l.Y[lane], &l.Z[lane], &l.Q[lane]}[w]
	}
	return [...]*float64{&l.X[lane], &l.Y[lane], &l.Z[lane],
		&l.AX[lane], &l.AY[lane], &l.AZ[lane]}[w]
}

// flipWord applies a bit flip to one moment word. A flip that the
// float comparison of the detector cannot see (+0 ↔ −0) is reverted
// and not counted: it is arithmetically harmless by IEEE semantics.
func flipWord(p *float64, bit uint) bool {
	nv := fault.FlipBit(*p, bit)
	if nv == *p {
		return false
	}
	*p = nv
	return true
}

// wordPtr maps a word index within a node to the field it addresses.
func wordPtr(nd *tree.Node, disc tree.Discipline, w int) *float64 {
	if disc == tree.Coulomb {
		switch {
		case w == 0:
			return &nd.Charge
		case w == 1:
			return &nd.AbsCharge
		case w < 5:
			return [...]*float64{&nd.Centroid.X, &nd.Centroid.Y, &nd.Centroid.Z}[w-2]
		case w < 8:
			return [...]*float64{&nd.DipoleQ.X, &nd.DipoleQ.Y, &nd.DipoleQ.Z}[w-5]
		default:
			return &nd.QuadQ[(w-8)/3][(w-8)%3]
		}
	}
	switch {
	case w < 3:
		return [...]*float64{&nd.CircSum.X, &nd.CircSum.Y, &nd.CircSum.Z}[w]
	case w == 3:
		return &nd.AbsCirc
	case w < 7:
		return [...]*float64{&nd.Centroid.X, &nd.Centroid.Y, &nd.Centroid.Z}[w-4]
	default:
		return &nd.Dipole[(w-7)/3][(w-7)%3]
	}
}

// AfterBuild implements tree.BuildHook: it injects the tree-domain
// flips of the current (build epoch, attempt) into the multipole
// moments, then runs the ABFT detectors — Morton-order check and
// bitwise moment recomputation. A detected corruption asks the caller
// for a clean rebuild (wrapping tree.ErrRetryBuild) up to MaxRecompute
// times; past that the hook returns a Violation, which BuildWithHook
// escalates as a panic that the mpi runtime converts into a typed
// per-rank error. The rebuild loop is collective-free, so ranks may
// climb the ladder independently.
func (g *Guard) AfterBuild(t *tree.Tree, attempt int) error {
	if g == nil {
		return nil
	}
	if attempt == 0 {
		g.buildSeen++
	}
	epoch := g.buildSeen
	inj := 0
	if g.mem.Enabled(fault.MemTree) {
		disc := t.Discipline()
		wpn := wordsPerNode(disc)
		for i := range t.Nodes {
			for w := 0; w < wpn; w++ {
				bit, ok := g.mem.Flip(fault.MemTree, uint64(epoch), attempt, i*wpn+w)
				if ok && flipWord(wordPtr(&t.Nodes[i], disc, w), bit) {
					inj++
				}
			}
		}
		// The SoA lanes extend the tree word space past the node
		// moments: a flip in a gathered coordinate or weight lane is
		// the same class of fault as a flipped moment word, and
		// CheckLanes detects it against the particles.
		l := t.Lanes
		base := len(t.Nodes) * wpn
		wpl := wordsPerLane(disc)
		for lane := 0; lane < l.N(); lane++ {
			for w := 0; w < wpl; w++ {
				bit, ok := g.mem.Flip(fault.MemTree, uint64(epoch), attempt, base+lane*wpl+w)
				if ok && flipWord(laneWordPtr(l, disc, lane, w), bit) {
					inj++
				}
			}
		}
		if inj > 0 {
			g.pb.injected.Add(int64(inj))
		}
	}
	verr := t.CheckOrdering()
	if verr == nil {
		verr = t.CheckMoments()
	}
	if verr == nil {
		verr = t.CheckLanes()
	}
	if verr == nil {
		if g.treePending > 0 {
			g.pb.recovered.Add(int64(g.treePending))
			g.treePending = 0
		}
		return nil
	}
	det := inj
	if det == 0 {
		det = 1
	}
	g.treePending += det
	g.pb.detected.Add(int64(det))
	if attempt >= g.pol.MaxRecomputeN() {
		g.treePending = 0
		g.pb.aborts.Inc()
		monitor := "tree-moments"
		if errors.Is(verr, tree.ErrOrdering) {
			monitor = "tree-ordering"
		} else if errors.Is(verr, tree.ErrLanes) {
			monitor = "tree-lanes"
		}
		return g.violation(monitor, epoch,
			"corruption persisted through %d rebuilds: %v", attempt, verr)
	}
	g.pb.recompute.Inc()
	return fmt.Errorf("%w: %v", tree.ErrRetryBuild, verr)
}

var _ tree.BuildHook = (*Guard)(nil)
