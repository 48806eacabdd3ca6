package tree

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/particle"
	"repro/internal/vec"
)

// Typed construction and consistency errors. Callers match them with
// errors.Is; the guard layer maps them onto its escalation ladder.
var (
	// ErrEmpty reports a build over zero particles.
	ErrEmpty = errors.New("tree: empty system")
	// ErrNonFinite reports NaN/Inf particle coordinates or weights.
	ErrNonFinite = errors.New("tree: non-finite particle data")
	// ErrMoments reports a multipole moment inconsistent with its
	// particles (leaf) or children (internal node).
	ErrMoments = errors.New("tree: multipole moments inconsistent")
	// ErrOrdering reports a violated Morton sort order.
	ErrOrdering = errors.New("tree: morton key order violated")
	// ErrLanes reports an SoA lane word inconsistent with its source
	// particle (or a broken Order/sortedPos bijection).
	ErrLanes = errors.New("tree: soa lanes inconsistent with particles")
	// ErrRetryBuild is returned (wrapped) by a BuildHook to request a
	// clean rebuild of the tree; any other hook error is fatal.
	ErrRetryBuild = errors.New("tree: retry build")
)

// BuildHook observes every freshly built tree before it is used. The
// guard layer implements it to inject seeded moment flips and run the
// ABFT consistency checks. A nil hook costs nothing. AfterBuild
// returning an error wrapping ErrRetryBuild asks the caller to rebuild
// from the unchanged particle data and call the hook again with the
// next attempt number; any other error is an unrecoverable corruption
// verdict.
type BuildHook interface {
	AfterBuild(t *Tree, attempt int) error
}

// ValidateSystem rejects particle data that would poison a build:
// non-finite positions or non-finite weights of the given discipline.
func ValidateSystem(sys *particle.System, disc Discipline) error {
	for i := range sys.Particles {
		p := &sys.Particles[i]
		if !finiteV(p.Pos) {
			return fmt.Errorf("%w: particle %d position %v", ErrNonFinite, i, p.Pos)
		}
		switch disc {
		case Vortex:
			if !finiteV(p.Alpha) {
				return fmt.Errorf("%w: particle %d alpha %v", ErrNonFinite, i, p.Alpha)
			}
		case Coulomb:
			if math.IsNaN(p.Charge) || math.IsInf(p.Charge, 0) {
				return fmt.Errorf("%w: particle %d charge %v", ErrNonFinite, i, p.Charge)
			}
		}
	}
	return nil
}

// BuildChecked is Build behind input validation: it returns typed
// errors for empty systems and non-finite particle data instead of
// panicking or building a poisoned tree. Degenerate but finite inputs
// (coincident particles, zero-extent bounding boxes) build normally —
// identical keys are split deterministically into a single leaf.
func BuildChecked(sys *particle.System, cfg BuildConfig) (*Tree, error) {
	if sys.N() == 0 {
		return nil, ErrEmpty
	}
	if err := ValidateSystem(sys, cfg.Discipline); err != nil {
		return nil, err
	}
	return Build(sys, cfg), nil
}

// CheckOrdering verifies the Morton sort order of the key array — a
// flipped key bit breaks the monotonicity the whole range-partitioned
// build rests on.
func (t *Tree) CheckOrdering() error {
	for i := 1; i < len(t.Keys); i++ {
		if t.Keys[i-1] > t.Keys[i] {
			return fmt.Errorf("%w: keys[%d]=%#x > keys[%d]=%#x",
				ErrOrdering, i-1, t.Keys[i-1], i, t.Keys[i])
		}
	}
	return nil
}

// CheckMoments is the ABFT tree detector: it recomputes every node's
// multipole data — leaves from their particles, internal nodes from
// their children's stored moments — with the exact arithmetic of the
// build and compares bitwise. Because the recomputation replays the
// identical instruction sequence, an uncorrupted tree always passes
// with zero tolerance, and any single flipped moment word mismatches
// either at its own node or at the parent that aggregated it.
// Non-finite stored moments always mismatch (NaN compares unequal to
// itself), so NaN corruption is caught by the same comparison. The
// check is read-only: each node is restored after its recomputation.
func (t *Tree) CheckMoments() error {
	for idx := len(t.Nodes) - 1; idx >= 0; idx-- {
		saved := t.Nodes[idx]
		if saved.Leaf {
			t.accumulateLeaf(idx)
		} else {
			t.accumulateInternal(idx)
		}
		re := t.Nodes[idx]
		t.Nodes[idx] = saved
		if !momentsEqual(&saved, &re) {
			kind := "internal"
			if saved.Leaf {
				kind = "leaf"
			}
			return fmt.Errorf("%w: %s node %d (level %d, %d particles)",
				ErrMoments, kind, idx, saved.Level, saved.Count)
		}
	}
	return nil
}

// momentsEqual compares the moment payload of two nodes bitwise (via
// float equality, so NaN never matches).
func momentsEqual(a, b *Node) bool {
	return a.CircSum == b.CircSum && a.AbsCirc == b.AbsCirc &&
		a.Centroid == b.Centroid && a.Dipole == b.Dipole &&
		a.Charge == b.Charge && a.AbsCharge == b.AbsCharge &&
		a.DipoleQ == b.DipoleQ && a.QuadQ == b.QuadQ
}

// BuildArenaWithHook builds a tree in the arena and runs the hook's
// inject/verify cycle, rebuilding on ErrRetryBuild. Any other hook
// error escalates as a panic: the evaluator interfaces have no error
// channel, and the mpi runtime converts a panicking rank into a typed
// per-rank error (the guard's Violation survives errors.As through
// that wrapping). The rebuild loop is collective-free: ranks may take
// different attempt counts without desynchronizing the communicator.
// Every build of the retry ladder reuses the arena's capacity, and a
// rebuild fully overwrites whatever the hook's injection corrupted
// (nodes, keys, order and SoA lanes are all regathered from the
// unchanged particle data).
func BuildArenaWithHook(hook BuildHook, a *Arena, sys *particle.System, cfg BuildConfig) *Tree {
	t := BuildInto(a, sys, cfg)
	if hook == nil {
		return t
	}
	for attempt := 0; ; attempt++ {
		err := hook.AfterBuild(t, attempt)
		if err == nil {
			return t
		}
		if !errors.Is(err, ErrRetryBuild) {
			panic(err)
		}
		t = BuildInto(a, sys, cfg)
	}
}

// CheckLanes is the SoA companion of CheckMoments: it verifies that
// every gathered lane word is bitwise equal to its source particle
// component under the Morton permutation and that sortedPos is the
// exact inverse of Order. Lanes are a redundant copy of the particle
// state, so the check needs no tolerance — float equality (NaN never
// matching itself) detects any flipped lane word, including flips that
// turn a lane into NaN.
func (t *Tree) CheckLanes() error {
	l := t.Lanes
	n := t.sys.N()
	if l.N() != n {
		return fmt.Errorf("%w: %d lanes for %d particles", ErrLanes, l.N(), n)
	}
	if len(t.sortedPos) != n {
		return fmt.Errorf("%w: sortedPos has %d entries, want %d", ErrLanes, len(t.sortedPos), n)
	}
	for i, idx := range t.Order {
		if int(t.sortedPos[idx]) != i {
			return fmt.Errorf("%w: sortedPos[%d]=%d, want %d", ErrLanes, idx, t.sortedPos[idx], i)
		}
		p := &t.sys.Particles[idx]
		if !(l.X[i] == p.Pos.X && l.Y[i] == p.Pos.Y && l.Z[i] == p.Pos.Z) {
			return fmt.Errorf("%w: position lane %d disagrees with particle %d", ErrLanes, i, idx)
		}
		switch t.discipline {
		case Vortex:
			if !(l.AX[i] == p.Alpha.X && l.AY[i] == p.Alpha.Y && l.AZ[i] == p.Alpha.Z) {
				return fmt.Errorf("%w: circulation lane %d disagrees with particle %d", ErrLanes, i, idx)
			}
		case Coulomb:
			if l.Q[i] != p.Charge {
				return fmt.Errorf("%w: charge lane %d disagrees with particle %d", ErrLanes, i, idx)
			}
		}
	}
	return nil
}

// Discipline reports which multipole data the tree carries; the guard
// layer uses it to pick the moment words eligible for fault injection.
func (t *Tree) Discipline() Discipline { return t.discipline }

func finiteV(v vec.Vec3) bool {
	return finite(v.X) && finite(v.Y) && finite(v.Z)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
