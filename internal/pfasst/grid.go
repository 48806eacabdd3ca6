package pfasst

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// GridSolver owns the one block attempt (see attempt in pfasst.go) and
// everything it accumulates into: the two levels, the Result and the
// telemetry handles. Run drives it for generic ode.System callers;
// every space-time run of the particle method is driven by core's grid
// loop through BlockAttempt, on one of two transports (see link):
//
//	plain link      RecvTimeout == 0: blocking fail-fast receives, tree
//	                collectives, plain tags
//	deadline link   RecvTimeout > 0: bounded receives, linear
//	                collectives, generation tags
//
// The loop lives in internal/core because its commit-or-abort must be
// agreed over the entire PS×PT grid — after a rank dies, the survivors
// drop dead time slices, re-decompose the particle state and rebuild
// every communicator — and that belongs to the layer that owns the
// spatial decomposition. The split of responsibilities:
//
//	core (runGrid)            grid-wide agreement, shrink, state
//	                          redistribution, checkpoint orchestration,
//	                          guard commits, retry/abort policy
//	pfasst (GridSolver)       one block attempt on the current time
//	                          communicator
//
// A GridSolver is bound to one generation of communicators: after a
// shrink the core rebuilds the level systems on the new spatial
// communicator and constructs a fresh GridSolver around them, passing
// the SAME *Result so sweep counts and per-block diagnostics keep
// accumulating across rebuilds.
type GridSolver struct {
	cfg          Config
	fine, coarse *level
	prevEnd      []float64 // the fine slice end of the previous iteration
	res          *Result
	pb           probe
	// open marks that the last attempt committed a per-block record no
	// agreement has rejected yet (see dropRecord).
	open bool
}

// NewGridSolver validates cfg and builds the two levels. res receives
// sweep counts, residuals and resilience counters; pass the same res to
// successor solvers after a rebuild.
func NewGridSolver(cfg Config, res *Result) (*GridSolver, error) {
	if len(cfg.Levels) != 2 {
		return nil, fmt.Errorf("pfasst: need exactly 2 levels, got %d", len(cfg.Levels))
	}
	// The space transfer is the identity, so the levels share the state
	// layout.
	if df, dc := cfg.Levels[0].Sys.Dim(), cfg.Levels[1].Sys.Dim(); df != dc {
		return nil, fmt.Errorf("pfasst: fine level has dimension %d, coarse level %d", df, dc)
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("pfasst: iterations %d < 1", cfg.Iterations)
	}
	if cfg.CoarseSweeps < 1 {
		cfg.CoarseSweeps = 1
	}
	fine, coarse, err := buildLevels(cfg)
	if err != nil {
		return nil, err
	}
	return &GridSolver{
		cfg: cfg, fine: fine, coarse: coarse,
		prevEnd: make([]float64, cfg.Levels[0].Sys.Dim()),
		res:     res, pb: newProbe(cfg.Tel),
	}, nil
}

// BlockAttempt runs one block attempt (body, end-value distribution,
// guard block-end detectors) on the time communicator cur, starting
// this rank's slice at tn from block-start state u0. With a positive
// Resilience.RecvTimeout every receive carries that deadline and
// message tags embed gen, so a retried attempt never consumes stale
// traffic; with zero it runs the plain link. retries is the count of
// consecutive rejected attempts at this block (the guard ladder's
// rung). It returns the committed-candidate block end value,
// or an error that wraps ErrBlockAbort (transport) or guard.ErrCorrupt
// (a detector fired) — the caller folds that into the grid-wide
// agreement, decides commit, retry or shrink, and calls RecordRestart
// when the agreed verdict rejects the attempt.
func (s *GridSolver) BlockAttempt(cur *mpi.Comm, tn, dt float64, u0 []float64, block, gen, retries int) ([]float64, error) {
	lk := link{gen: gen, timeout: s.cfg.Resilience.RecvTimeout}
	return s.attempt(cur, lk, tn, dt, u0, block, retries)
}

// ErrBlockAbort is the typed failure wrapped by every abort an attempt
// can produce (deadline expiry, dead peer, injected loss); match with
// errors.Is to distinguish a retryable abort from a hard error.
var ErrBlockAbort = errBlockAbort

// RecordRestart counts one aborted-and-redone block attempt and drops
// the record it may have committed on this rank.
func (s *GridSolver) RecordRestart() {
	s.dropRecord()
	s.res.BlockRestarts++
	s.pb.restarts.Inc()
}

// RecordDegraded counts one block executed at reduced parallelism
// (a shrunken grid, or a tail on fewer time slices).
func (s *GridSolver) RecordDegraded() {
	s.res.DegradedBlocks++
	s.pb.degraded.Inc()
}

// RecordShrink counts one contraction of the grid after rank deaths.
func (s *GridSolver) RecordShrink() { s.pb.shrinks.Inc() }

// NewRetiredSolver is the solver of a rank that holds no share of the
// grid (retired after a spatial shrink, or for a tail on fewer time
// slices): it has no levels and must not run attempts, but the Record*
// methods keep accounting into res and tel, so the driver counts
// restarts, shrinks and degraded blocks the same way on every live
// rank.
func NewRetiredSolver(tel *telemetry.Registry, res *Result) *GridSolver {
	return &GridSolver{res: res, pb: newProbe(tel)}
}
