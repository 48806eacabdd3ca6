// Package guard detects and recovers from silent data corruption in
// the space-time solver. It combines seeded memory fault injection
// (internal/fault's MemPlan) with layered detectors — an FNV checksum
// over the replicated block-start state, ABFT recomputation of the
// tree's multipole moments, Morton-order verification, NaN/Inf and
// magnitude scans, and physics invariant monitors (total circulation,
// linear and angular impulse) — and a configurable recovery ladder:
// recompute (tree rebuild, block redo), rollback (shadow copy of the
// committed state), extra SDC sweeps on repeated block rejection, and
// finally a typed abort naming the failing monitor, rank, and epoch.
//
// All hooks are nil-safe: a nil *Guard costs one pointer comparison in
// the hot paths, so guards-off runs are bitwise and performance
// identical to builds without the package.
package guard

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/telemetry"
)

// Policy configures the detectors and the recovery ladder.
type Policy struct {
	// Enabled switches the whole guard layer; the façade only
	// constructs a Guard when set.
	Enabled bool
	// Mem is the seeded memory fault plan (nil or empty: no injection,
	// detectors still run against real corruption).
	Mem *fault.MemPlan
	// MaxAbs is the magnitude ceiling of the block-end scan; any state
	// word with |x| above it is corrupt. Zero means DefaultMaxAbs.
	MaxAbs float64
	// CircTol is the relative tolerance of the total-circulation
	// monitor. Circulation is exactly conserved by the transpose
	// scheme, so the clean drift is pure rounding. Zero means
	// DefaultCircTol.
	CircTol float64
	// ImpulseTol is the relative tolerance of the linear-impulse
	// monitor (conserved to discretization error, not exactly). Zero
	// means DefaultImpulseTol.
	ImpulseTol float64
	// AngularTol is the relative tolerance of the angular-impulse
	// monitor, the loosest of the three. Zero means DefaultAngularTol.
	AngularTol float64
	// JumpTol, when positive, bounds the per-word change across one
	// block (|end_i − start_i| ≤ JumpTol). Off by default: the right
	// bound is problem-dependent.
	JumpTol float64
	// ResidualFactor flags a block whose SDC residual exceeds
	// factor × the previous block's residual (advisory only — the
	// residual is rank-local, so it never drives collective control
	// flow). Zero means DefaultResidualFactor.
	ResidualFactor float64
	// MaxRecompute bounds tree rebuilds per evaluation before the tree
	// hook escalates to a typed abort. Zero means DefaultMaxRecompute.
	// Block redos do not count here: the space-time grid loop redoes a
	// rejected block within its own retry budget
	// (pfasst.Resilience.MaxBlockRetries).
	MaxRecompute int
	// MaxRollback bounds shadow-copy restores per scrub of the
	// block-start state. Zero means DefaultMaxRollback.
	MaxRollback int
	// ExtraSweeps is added to the one fine sweep per PFASST iteration
	// from the second redo of a rejected block on (the "extra SDC
	// sweeps on step rejection" rung). Zero means DefaultExtraSweeps.
	ExtraSweeps int
}

// Ladder and detector defaults. The tolerances are deliberately loose:
// a false positive aborts or redoes real work, while the injected
// faults the physics monitors are aimed at (high-order bit flips) move
// the invariants by many orders of magnitude.
const (
	DefaultMaxAbs         = 1e12
	DefaultCircTol        = 1e-6
	DefaultImpulseTol     = 1e-3
	DefaultAngularTol     = 1e-2
	DefaultResidualFactor = 1e3
	DefaultMaxRecompute   = 2
	DefaultMaxRollback    = 2
	DefaultExtraSweeps    = 2
)

func (p Policy) maxAbs() float64 {
	if p.MaxAbs > 0 {
		return p.MaxAbs
	}
	return DefaultMaxAbs
}

func (p Policy) circTol() float64 {
	if p.CircTol > 0 {
		return p.CircTol
	}
	return DefaultCircTol
}

func (p Policy) impulseTol() float64 {
	if p.ImpulseTol > 0 {
		return p.ImpulseTol
	}
	return DefaultImpulseTol
}

func (p Policy) angularTol() float64 {
	if p.AngularTol > 0 {
		return p.AngularTol
	}
	return DefaultAngularTol
}

func (p Policy) residualFactor() float64 {
	if p.ResidualFactor > 0 {
		return p.ResidualFactor
	}
	return DefaultResidualFactor
}

// MaxRecomputeN returns the effective recompute bound.
func (p Policy) MaxRecomputeN() int {
	if p.MaxRecompute > 0 {
		return p.MaxRecompute
	}
	return DefaultMaxRecompute
}

// MaxRollbackN returns the effective rollback bound.
func (p Policy) MaxRollbackN() int {
	if p.MaxRollback > 0 {
		return p.MaxRollback
	}
	return DefaultMaxRollback
}

// ExtraSweepsN returns the effective extra-sweep count.
func (p Policy) ExtraSweepsN() int {
	if p.ExtraSweeps > 0 {
		return p.ExtraSweeps
	}
	return DefaultExtraSweeps
}

// ErrCorrupt is the sentinel wrapped by every Violation; callers can
// test for any guard abort with errors.Is(err, guard.ErrCorrupt).
var ErrCorrupt = errors.New("guard: corruption detected")

// Violation is the typed abort of the recovery ladder: the monitor
// that fired, the rank it fired on, and the epoch (block index for
// state and block monitors, build counter for tree monitors).
type Violation struct {
	Monitor string
	Rank    int
	Epoch   int
	Detail  string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("guard: %s violation on rank %d epoch %d: %s",
		v.Monitor, v.Rank, v.Epoch, v.Detail)
}

// Unwrap makes errors.Is(v, ErrCorrupt) true.
func (v *Violation) Unwrap() error { return ErrCorrupt }

// Telemetry names of the guard layer. injected and detected count
// individual flipped words; recovered counts the detected flips whose
// incident was repaired (rates: detected/injected, recovered/detected).
// recompute, rollback, redo, aborts and residual_flags count events.
const (
	CounterInjected      = "guard.injected"
	CounterDetected      = "guard.detected"
	CounterRecovered     = "guard.recovered"
	CounterRecompute     = "guard.recompute"
	CounterRollback      = "guard.rollback"
	CounterRedo          = "guard.redo"
	CounterAborts        = "guard.aborts"
	CounterResidualFlags = "guard.residual_flags"
)

type probe struct {
	injected, detected, recovered          *telemetry.Counter
	recompute, rollback, redo, aborts, rfl *telemetry.Counter
}

func newProbe(reg *telemetry.Registry) probe {
	return probe{
		injected:  reg.Counter(CounterInjected),
		detected:  reg.Counter(CounterDetected),
		recovered: reg.Counter(CounterRecovered),
		recompute: reg.Counter(CounterRecompute),
		rollback:  reg.Counter(CounterRollback),
		redo:      reg.Counter(CounterRedo),
		aborts:    reg.Counter(CounterAborts),
		rfl:       reg.Counter(CounterResidualFlags),
	}
}

// Guard is the per-rank detector and recovery state. Methods on a nil
// Guard are no-ops, so call sites need no feature flag. The fault
// plan's hash excludes the rank: state replicated across time ranks
// receives identical flips. The caller makes every recovery decision
// uniform (the space-time grid loop folds the verdicts into one world
// agreement per block).
type Guard struct {
	pol  Policy
	mem  *fault.MemPlan
	rank int
	pb   probe

	// Committed block-start protection: checksum + shadow copy.
	sum    uint64
	shadow []float64
	epoch  int

	// Reference invariants, captured at the first commit.
	ref    particle.StateInvariants
	refSet bool

	// Residual history of the advisory divergence monitor.
	prevRes float64
	resSet  bool

	// Tree-hook state: build counter (the tree monitors' epoch) and
	// flips detected but not yet confirmed recovered by a clean verify.
	buildSeen   int
	treePending int

	// blockPending counts flips the block-end detectors caught on this
	// rank whose block has not committed yet; the commit of the next
	// epoch credits them as recovered (a ladder abort never does).
	blockPending int

	// space, when non-nil, is the spatial communicator (PS > 1) the
	// invariant monitors sum over.
	space *mpi.Comm
}

// New returns a guard for one rank. The registry may be nil (counters
// become no-ops); the policy's zero fields assume their defaults.
func New(pol Policy, rank int, reg *telemetry.Registry) *Guard {
	g := &Guard{pol: pol, rank: rank, pb: newProbe(reg)}
	if pol.Mem != nil && !pol.Mem.Empty() {
		g.mem = pol.Mem
	}
	return g
}

// Policy returns the (zero-filled) policy the guard was built with. A
// nil guard yields the zero policy, whose accessors return the
// package defaults — the block attempt reads ladder bounds through
// here without first checking for a disabled guard.
func (g *Guard) Policy() Policy {
	if g == nil {
		return Policy{}
	}
	return g.pol
}

// AttachSpace binds the spatial communicator the guard's invariant
// monitors sum over. With PS = 1 (or no attachment) every check stays
// rank-local; with PS > 1 the monitors compare global sums over the
// spatial ranks (DESIGN.md §15).
// Attaching nil or a singleton communicator DETACHES: after crash
// recovery re-decomposes onto a single spatial rank, the guard must
// stop running collectives on the abandoned communicator.
func (g *Guard) AttachSpace(c *mpi.Comm) {
	if g == nil {
		return
	}
	if c == nil || c.Size() < 2 {
		g.space = nil
		return
	}
	g.space = c
}

// PeerViolation is the violation a rank adopts when the agreed verdict
// aborts on corruption its own detectors did not see: every rank
// needs a typed error wrapping ErrCorrupt to return.
func (g *Guard) PeerViolation(monitor string, epoch int) *Violation {
	rank := 0
	if g != nil {
		rank = g.rank
	}
	return &Violation{
		Monitor: monitor,
		Rank:    rank,
		Epoch:   epoch,
		Detail:  "a peer rank detected corruption (collective verdict)",
	}
}

// diagnose returns the physics invariants of u — summed over the
// spatial communicator when one is attached, since total circulation
// and impulse are properties of the whole system, not of one rank's
// particle share. Collective when attached.
func (g *Guard) diagnose(u []float64) particle.StateInvariants {
	inv := particle.DiagnoseState(u)
	if g.space == nil {
		return inv
	}
	global := g.space.AllreduceFloat64(inv.Floats(), mpi.OpSum)
	out, _ := particle.InvariantsFromFloats(global)
	return out
}

func (g *Guard) violation(monitor string, epoch int, format string, args ...any) *Violation {
	return &Violation{
		Monitor: monitor,
		Rank:    g.rank,
		Epoch:   epoch,
		Detail:  fmt.Sprintf(format, args...),
	}
}

// checksum is FNV-1a over the raw float64 bits of the state.
func checksum(u []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range u {
		v := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// CommitState protects u as the consistent state entering block epoch:
// it records the checksum, refreshes the shadow copy, and on the first
// call captures the reference invariants of the physics monitors
// (global sums when a spatial communicator is attached — collective on
// the first commit in that case). A commit that advances the epoch
// means the redo of every rejected attempt at the previous block ended
// clean, so the flips CheckBlockEnd detected there count as recovered;
// re-committing the same epoch (crash recovery re-partitioning the
// block-start state) leaves them pending.
func (g *Guard) CommitState(u []float64, epoch int) {
	if g == nil {
		return
	}
	if epoch > g.epoch {
		g.pb.recovered.Add(int64(g.blockPending))
		g.blockPending = 0
	}
	g.sum = checksum(u)
	g.shadow = append(g.shadow[:0], u...)
	g.epoch = epoch
	if !g.refSet {
		g.ref = g.diagnose(u)
		g.refSet = true
	}
}

// ScrubState verifies the committed state against its checksum and
// repairs any mismatch from the shadow copy, climbing the rollback
// rung up to MaxRollback times before aborting. When a memory fault
// plan covers the state domain, each attempt first injects that
// attempt's flips into u — a transient plan's flips vanish on the
// retry after the rollback, a sticky plan's flips recur and exhaust
// the ladder. The shadow copy itself is treated as protected memory
// (the standard ABFT assumption that detector state is reliable).
func (g *Guard) ScrubState(u []float64) *Violation {
	if g == nil {
		return nil
	}
	pending := 0
	for attempt := 0; ; attempt++ {
		inj := g.mem.FlipWords(fault.MemState, uint64(g.epoch), attempt, u)
		if inj > 0 {
			g.pb.injected.Add(int64(inj))
		}
		if checksum(u) == g.sum {
			if pending > 0 {
				g.pb.recovered.Add(int64(pending))
			}
			return nil
		}
		det := inj
		if det == 0 {
			det = 1
		}
		pending += det
		g.pb.detected.Add(int64(det))
		if attempt >= g.pol.MaxRollbackN() {
			g.pb.aborts.Inc()
			return g.violation("state-checksum", g.epoch,
				"block-start state failed checksum after %d rollbacks", attempt)
		}
		copy(u, g.shadow)
		g.pb.rollback.Inc()
	}
}

// InjectBlockEnd applies the block-domain flips of (block, attempt) to
// a freshly computed block-end state and returns the flip count. The
// block domain is opt-in: unlike the state and tree domains its
// detectors are threshold monitors, not exact checks.
func (g *Guard) InjectBlockEnd(end []float64, block, attempt int) int {
	if g == nil {
		return 0
	}
	inj := g.mem.FlipWords(fault.MemBlock, uint64(block), attempt, end)
	if inj > 0 {
		g.pb.injected.Add(int64(inj))
	}
	return inj
}

// relErr is |a−b| measured against 1+|b| per component, reduced max.
func relErr(a, b [3]float64) float64 {
	m := 0.0
	for i := 0; i < 3; i++ {
		e := math.Abs(a[i]-b[i]) / (1 + math.Abs(b[i]))
		if e > m {
			m = e
		}
	}
	return m
}

func v3arr(x, y, z float64) [3]float64 { return [3]float64{x, y, z} }

// CheckBlockEnd runs the block-end detectors on a state every rank
// holds identically (post-broadcast): NaN/Inf scan, magnitude ceiling,
// optional per-word jump bound against the committed block start, and
// the invariant monitors against the reference captured at the first
// commit. injected is the flip count of the matching InjectBlockEnd
// call; when a detector fires, those flips are credited as detected.
func (g *Guard) CheckBlockEnd(end []float64, block, injected int) *Violation {
	if g == nil {
		return nil
	}
	v := g.scanState(end, "block-end", block)
	if v == nil && g.pol.JumpTol > 0 && len(g.shadow) == len(end) {
		for i := range end {
			if math.Abs(end[i]-g.shadow[i]) > g.pol.JumpTol {
				v = g.violation("state-jump", block,
					"word %d jumped %g in one block (bound %g)",
					i, end[i]-g.shadow[i], g.pol.JumpTol)
				break
			}
		}
	}
	// Invariant monitors compare against the first-commit reference.
	// With an attached spatial communicator the invariants are global
	// sums, and the allreduce inside diagnose must run on every spatial
	// rank regardless of its local scan verdict (v may differ across
	// ranks — the per-rank states differ), or ranks whose scans
	// disagreed would deadlock in the collective.
	if g.refSet && len(end)%6 == 0 && (v == nil || g.space != nil) {
		inv := g.diagnose(end)
		cd := relErr(
			v3arr(inv.TotalCirculation.X, inv.TotalCirculation.Y, inv.TotalCirculation.Z),
			v3arr(g.ref.TotalCirculation.X, g.ref.TotalCirculation.Y, g.ref.TotalCirculation.Z))
		id := relErr(
			v3arr(inv.LinearImpulse.X, inv.LinearImpulse.Y, inv.LinearImpulse.Z),
			v3arr(g.ref.LinearImpulse.X, g.ref.LinearImpulse.Y, g.ref.LinearImpulse.Z))
		ad := relErr(
			v3arr(inv.AngularImpulse.X, inv.AngularImpulse.Y, inv.AngularImpulse.Z),
			v3arr(g.ref.AngularImpulse.X, g.ref.AngularImpulse.Y, g.ref.AngularImpulse.Z))
		if v == nil {
			switch {
			case cd > g.pol.circTol():
				v = g.violation("invariant-circulation", block,
					"total circulation drifted %g (tol %g)", cd, g.pol.circTol())
			case id > g.pol.impulseTol():
				v = g.violation("invariant-impulse", block,
					"linear impulse drifted %g (tol %g)", id, g.pol.impulseTol())
			case ad > g.pol.angularTol():
				v = g.violation("invariant-angular", block,
					"angular impulse drifted %g (tol %g)", ad, g.pol.angularTol())
			}
		}
	}
	if v != nil {
		det := injected
		if det == 0 {
			det = 1
		}
		g.pb.detected.Add(int64(det))
		g.blockPending += det
	}
	return v
}

// RecordRedo counts one block-redo event of the recompute rung.
func (g *Guard) RecordRedo() {
	if g == nil {
		return
	}
	g.pb.redo.Inc()
}

// RecordAbort counts a ladder exhaustion that ends the run.
func (g *Guard) RecordAbort() {
	if g == nil {
		return
	}
	g.pb.aborts.Inc()
}

// scanState is the NaN/Inf and magnitude detector. A nil guard scans
// nothing and reports no violation.
func (g *Guard) scanState(u []float64, where string, epoch int) *Violation {
	if g == nil {
		return nil
	}
	maxAbs := g.pol.maxAbs()
	for i, x := range u {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return g.violation("nan-scan", epoch, "%s word %d = %v", where, i, x)
		}
		if math.Abs(x) > maxAbs {
			return g.violation("max-abs", epoch, "%s word %d = %g exceeds %g", where, i, x, maxAbs)
		}
	}
	return nil
}

// ValidateState runs the NaN/Inf and magnitude scan on a state outside
// the block cycle (initial conditions, checkpoint decode).
func (g *Guard) ValidateState(u []float64, where string, epoch int) *Violation {
	if g == nil {
		return nil
	}
	return g.scanState(u, where, epoch)
}

// ValidateCheckpoint vets a decoded checkpoint state before a resume:
// the NaN/magnitude scan always runs, and when the checkpoint carries
// a diagnostics block (9 floats: Ω, I, A) the invariants recomputed
// from the state must match the stored ones within the monitor
// tolerances — a flipped body word that survived the file checksum
// cannot reproduce the invariants recorded at save time.
func (g *Guard) ValidateCheckpoint(u []float64, diag []float64, epoch int) *Violation {
	if g == nil {
		return nil
	}
	if v := g.scanState(u, "checkpoint", epoch); v != nil {
		g.pb.detected.Inc()
		g.pb.aborts.Inc()
		return v
	}
	stored, ok := particle.InvariantsFromFloats(diag)
	if !ok {
		return nil // v1 checkpoint without diagnostics: scan-only
	}
	inv := particle.DiagnoseState(u)
	cd := relErr(
		v3arr(inv.TotalCirculation.X, inv.TotalCirculation.Y, inv.TotalCirculation.Z),
		v3arr(stored.TotalCirculation.X, stored.TotalCirculation.Y, stored.TotalCirculation.Z))
	id := relErr(
		v3arr(inv.LinearImpulse.X, inv.LinearImpulse.Y, inv.LinearImpulse.Z),
		v3arr(stored.LinearImpulse.X, stored.LinearImpulse.Y, stored.LinearImpulse.Z))
	if cd > g.pol.circTol() || id > g.pol.impulseTol() {
		g.pb.detected.Inc()
		g.pb.aborts.Inc()
		return g.violation("checkpoint-invariants", epoch,
			"decoded state disagrees with stored diagnostics (circ %g, impulse %g)", cd, id)
	}
	return nil
}

// CheckpointDiag returns the diagnostics block to store alongside a
// checkpoint of state u: the nine conserved invariants (Ω, I, A). Nil
// for a nil guard or a state that is not a packed particle state.
func (g *Guard) CheckpointDiag(u []float64) []float64 {
	if g == nil || len(u) == 0 || len(u)%6 != 0 {
		return nil
	}
	return particle.DiagnoseState(u).Floats()
}

// CheckResidual is the advisory divergence monitor: it flags a block
// whose finest-level SDC residual is non-finite or exceeds
// ResidualFactor × the previous block's. The residual is rank-local
// (each rank owns one time slice), so the verdict never drives
// collective control flow — it lands in the guard.residual_flags
// counter and the returned Violation is for rank-local reporting only.
func (g *Guard) CheckResidual(block int, r float64) *Violation {
	if g == nil {
		return nil
	}
	var v *Violation
	if math.IsNaN(r) || math.IsInf(r, 0) {
		v = g.violation("residual-divergence", block, "residual %v is non-finite", r)
	} else if g.resSet && g.prevRes > 0 && r > g.pol.residualFactor()*g.prevRes {
		v = g.violation("residual-divergence", block,
			"residual %g exceeds %g× previous %g", r, g.pol.residualFactor(), g.prevRes)
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		// Keep the previous baseline; a non-finite residual carries no
		// magnitude information.
	} else {
		g.prevRes = r
		g.resSet = true
	}
	if v != nil {
		g.pb.rfl.Inc()
	}
	return v
}
