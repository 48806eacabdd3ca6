package core

// The one block loop of every space-time run, on the PT×PS
// communicator grid, at every PS — PS = 1 is the grid one column wide,
// not a different program. It drives pfasst.GridSolver's block attempt
// on the plain link or, with Resilience.RecvTimeout > 0, the deadline
// link; a run without faults commits every block on the first attempt
// and pays one world agreement per block. The failure surface is
// two-dimensional — a dead rank breaks its temporal column AND its
// spatial slice — so the recovery protocol lives in the layer that owns
// the spatial decomposition:
//
//  1. Every block ends in ONE agreement over the original world
//     communicator (retired ranks included), so commit/abort/fatal is
//     decided identically everywhere. Agreement values: 2 commit,
//     1 retryable abort, 0 fatal.
//  2. On abort, survivors agree on the dead set (mpi.AgreeDeadRanks),
//     chain-shrink onto it, and rebuild both communicator families
//     from scratch. A time slice with no live rank is dropped (the
//     PT-shrink): the live slices close ranks in slice order, a block
//     advances PT' = live-slice-count steps. The new spatial width is
//     PS' = min over LIVE slices of that slice's live-rank count; each
//     live slice's first PS' live ranks are active, the rest retire
//     into a control skeleton that keeps voting (and can be
//     reactivated by a later shrink).
//  3. The committed block-start state is redistributed: every previous
//     holder contributes its column share, the full state is
//     reassembled (falling back to the on-disk grid checkpoint when a
//     whole column died out), and re-partitioned onto PS'. Resume from
//     a checkpoint takes exactly this path, which is why a checkpoint
//     written at one PT×PS restores onto any other.
//  4. A tail of fewer steps than live slices (what a shrunken PT' does
//     not divide) runs as one more block on the first `remaining` live
//     slices, at the width of the thinnest of them. The round that sets
//     it up is an ordinary recovery round with no new death: the active
//     set is a pure function of the agreed dead list and the steps
//     left, the other live slices retire for the tail (they keep
//     voting and hold no share), and the tail block meets the same
//     scrub, detectors, agreement and checkpoint as every other block.
//
// Wake-up cascade: a rank whose attempt hits a transport failure
// revokes its spatial and temporal communicators, so peers blocked in
// plain collectives (tree builds, guard allreduces — which have no
// deadlines) fail fast and join the agreement instead of waiting for
// the world-level deadlock detector. Guard corruption verdicts do NOT
// revoke: the time block completed, so every rank reaches the world
// agreement on its own, and that agreement's minimum is what makes a
// rank-local verdict uniform. A recovery round that fails on a torn
// collective block (mpi.ErrTornPayload) revokes the survivor
// communicator for the same reason and is retried from a fresh one.

import (
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/hot"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/pfasst"
)

// ErrStateLost is returned, identically on every live rank, when a
// crash destroys every replica of some spatial column's committed
// state and no restorable grid checkpoint covers it. With PT time
// ranks each column is held PT-fold redundantly, so this requires a
// whole temporal column to die inside one block.
var ErrStateLost = errors.New("core: committed state lost (no surviving replica, no checkpoint)")

// Recovery-phase telemetry of the grid loop: the timers
// split one recovery round into its phases (the BENCH_PR8 per-phase
// recovery cost columns), the first counter tallies rounds, and the
// second counts, once per shrink, a rank left without a column by the
// spatial width of the slices that run (a tail retires nobody into
// it).
const (
	PhaseRecoveryAgree        = "core.recovery.agree"
	PhaseRecoveryRebuild      = "core.recovery.rebuild"
	PhaseRecoveryRedistribute = "core.recovery.redistribute"
	PhaseRecoveryCheckpoint   = "core.recovery.checkpoint"
	CounterRecoveryRounds     = "core.recovery.rounds"
	CounterRecoveryRetired    = "core.recovery.retired_ranks"
)

// runGrid is the space-time block loop, at any PS. Every world rank
// calls it with identical arguments.
func runGrid(world *mpi.Comm, cfg Config, full *particle.System, t0, t1 float64, nsteps int) (Result, error) {
	if nsteps%cfg.PT != 0 {
		return Result{}, fmt.Errorf("core: nsteps %d not a multiple of PT %d", nsteps, cfg.PT)
	}
	rz := cfg.Resilience
	ps0, pt0 := cfg.PS, cfg.PT
	slice := world.Rank() / ps0 // fixed for the rank's lifetime
	dt := (t1 - t0) / float64(nsteps)
	n := full.N()
	maxRetries := rz.MaxBlockRetries
	if maxRetries <= 0 {
		maxRetries = pfasst.DefaultMaxBlockRetries
	}

	tAgree := cfg.Tel.Timer(PhaseRecoveryAgree)
	tRebuild := cfg.Tel.Timer(PhaseRecoveryRebuild)
	tRedist := cfg.Tel.Timer(PhaseRecoveryRedistribute)
	tCkpt := cfg.Tel.Timer(PhaseRecoveryCheckpoint)
	cRounds := cfg.Tel.Counter(CounterRecoveryRounds)
	cRetired := cfg.Tel.Counter(CounterRecoveryRetired)

	var grd *guard.Guard
	if cfg.Guard.Enabled {
		grd = guard.New(cfg.Guard, world.Rank(), cfg.Tel)
	}
	boundary := blockBoundary(world, cfg.Ctx, cfg.OnBlock)

	// Run state, identical on every live rank wherever it is not
	// explicitly per-rank (u, col, active).
	var (
		pres      pfasst.Result // accumulates across solver rebuilds
		u         []float64     // active: local share of committed block-start state
		stepsDone int
		block     int
		gen       int   // block-attempt generation (message tag namespace)
		rgen      int   // recovery generation (communicator labels)
		oldPS     int   // partition width of the committed state; 0 = undistributed
		psNew     int   // current active spatial width
		ptLive    int   // time slices with a live rank (Result.FinalRanks)
		ptNew     int   // current time width = steps per block: ptLive, fewer for a tail
		retries   int   // consecutive retries without a new death
		lastAbort error // cause of the most recent aborted attempt (per-rank)
		prevDead  = -1  // size of the last agreed dead set; -1 = none yet
		shrunk    int   // size of the dead set the current grid was built on
		col       = -1  // my spatial column, -1 = retired
		active    bool
		// fullU holds the full committed state as every recovery
		// round after the first reassembles it. Before the first
		// round distributes anything (oldPS == 0) it holds a resumed
		// checkpoint or the initial state the guard validates, and is
		// nil otherwise: that round packs each share from full.
		fullU []float64
	)
	surv := world
	var spaceComm, timeComm *mpi.Comm
	var solver *pfasst.GridSolver
	var local *particle.System
	var fineSys, coarseSys *DistVortexSystem
	var fineEvals, coarseEvals int64

	// Resume shares the shrink path: load the full state, let the first
	// recovery round partition it onto whatever PT×PS this run has. Every
	// rank reads and validates its own copy of the start state (the
	// checkpoint, or else the initial conditions), so the
	// accept-or-reject decision must be agreed world-wide before anyone
	// returns: a rank-local read or validation failure that bailed out
	// directly would strand the surviving ranks in the block-loop
	// collectives below (the PR 8 deadlock class; nbodylint's
	// collective rule flags the bare early returns).
	var rerr error
	if rz.Resume && rz.CheckpointDir != "" {
		gl, err := checkpoint.LoadGrid(rz.CheckpointDir)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Missing checkpoint: start from the beginning.
		case err != nil:
			rerr = fmt.Errorf("core: resume: %w", err)
		case len(gl.U) != 6*n:
			rerr = fmt.Errorf("core: resume: checkpoint dim %d does not match problem dim %d", len(gl.U), 6*n)
		case gl.StepsDone > nsteps:
			rerr = fmt.Errorf("core: checkpoint has %d steps done, run wants %d", gl.StepsDone, nsteps)
		default:
			if v := grd.ValidateCheckpoint(gl.U, gl.Diag, gl.Block); v != nil {
				rerr = fmt.Errorf("core: resume rejected: %w", v)
			}
			stepsDone, block, fullU = gl.StepsDone, gl.Block, gl.U
		}
	}
	if fullU == nil && grd != nil {
		fullU = full.PackNew()
		if v := grd.ValidateState(fullU, "initial state", 0); v != nil {
			grd.RecordAbort()
			rerr = v
		}
	}
	av := int64(1)
	if rerr != nil {
		av = 0
	}
	if world.Agree(av) == 0 {
		if rerr == nil {
			rerr = fmt.Errorf("core: start state rejected on a peer rank")
		}
		return Result{}, rerr
	}

	// bankEvals folds the current systems' force-evaluation counters
	// into the run totals before they are replaced.
	bankEvals := func() {
		if fineSys != nil {
			fineEvals += fineSys.Evals
			coarseEvals += coarseSys.Evals
		}
		fineSys, coarseSys = nil, nil
	}

	// gatherFull reassembles the full committed block-start state into
	// fullU on every member of surv — retired ranks included, so
	// reactivation needs no extra path. Every rank that holds a share of
	// the oldPS-wide partition (held, heldCol) contributes it; a column
	// with no live holder survives only on disk. The error wraps
	// ErrStateLost and is this rank's own verdict: the caller's
	// agreement makes it uniform.
	gatherFull := func(held bool, heldCol int) error {
		msg := make([]float64, 2, 2+len(u))
		if held {
			msg[0], msg[1] = 1, float64(heldCol)
			msg = append(msg, u...)
		}
		shares := make([][]float64, oldPS)
		for _, x := range surv.AllgatherFloat64s(msg) {
			if len(x) >= 2 && x[0] > 0.5 {
				if j := int(x[1]); j >= 0 && j < oldPS && shares[j] == nil {
					shares[j] = x[2:]
				}
			}
		}
		fullU = fullU[:0]
		for j, s := range shares {
			if s == nil {
				// A whole temporal column died.
				if rz.CheckpointDir == "" {
					return fmt.Errorf("%w: column %d/%d has no live holder", ErrStateLost, j, oldPS)
				}
				gl, err := checkpoint.LoadGrid(rz.CheckpointDir)
				if err != nil || gl.StepsDone != stepsDone || len(gl.U) != 6*n {
					return fmt.Errorf("%w: column %d/%d has no live holder and no matching checkpoint", ErrStateLost, j, oldPS)
				}
				if v := grd.ValidateCheckpoint(gl.U, gl.Diag, gl.Block); v != nil {
					return fmt.Errorf("%w: checkpoint rejected: %w", ErrStateLost, v)
				}
				fullU = gl.U
				break
			}
			fullU = append(fullU, s...)
		}
		if len(fullU) != 6*n {
			return fmt.Errorf("%w: reassembled %d floats, want %d", ErrStateLost, len(fullU), 6*n)
		}
		return nil
	}

	// recoverGrid is one full recovery round: agree on the dead, chain-
	// shrink, rebuild communicators and solvers, redistribute state.
	// It loops internally until a round completes without a transport
	// failure, and returns only errors that are identical on every live
	// rank (lost state, corrupt checkpoint, exhausted retry budget).
	// spend marks a round that follows a rejected attempt or a skipped
	// checkpoint: unless it finds a new death it costs one of
	// maxRetries. The initial decomposition and a tail round cost
	// nothing; a round retried after a transport failure always costs.
	recoverGrid := func(spend bool) error {
		for {
			cRounds.Inc()
			spanA := tAgree.Start()
			dead := world.AgreeDeadRanks()
			spanA.Stop()

			// Retry accounting is a pure function of agreed data, so
			// every rank takes the give-up branch together (no extra
			// agreement needed). Rounds that found a new death are free:
			// shrinks do not consume the retry budget.
			if len(dead) > prevDead {
				retries = 0
			} else if spend {
				retries++
				if retries > maxRetries {
					// Wrap this rank's last abort cause so callers keep
					// a typed handle on WHY the budget ran out (e.g. a
					// recurring guard violation).
					if lastAbort != nil {
						return fmt.Errorf("core: block %d failed %d attempts without a new rank death: %w", block, retries, lastAbort)
					}
					return fmt.Errorf("core: block %d failed %d attempts without a new rank death (aborts raised by peers)", block, retries)
				}
			}
			prevDead = len(dead)

			var lost error
			thinned := false // retired by the spatial width, not by a tail
			err := func() (rerr error) {
				defer func() {
					if p := recover(); p != nil {
						cerr, ok := mpi.AsCommFailure(p)
						if !ok {
							panic(p)
						}
						// A torn payload fails only the ranks that decode
						// it: wake the peers still inside this round's
						// collectives, as attemptOnce does.
						surv.Revoke()
						rerr, lastAbort = cerr, cerr
					}
				}()

				spanB := tRebuild.Start()
				rgen++
				surv = surv.ShrinkTo(dead)
				surv.SetLabel(fmt.Sprintf("surv[gen=%d]", rgen))
				surv.FailFast(true)

				// Active set: a pure function of the agreed dead list
				// and the steps left. A slice with no live rank drops out
				// of the grid — blocks get one step shorter — and a tail
				// of fewer steps than live slices runs on the first
				// `remaining` of them. The thinnest running slice sets the
				// spatial width. This rank is alive, so its own slice is:
				// ptLive, ptNew, psNew ≥ 1.
				deadSet := make(map[int]bool, len(dead))
				for _, wr := range dead {
					deadSet[wr] = true
				}
				var live [][]int // each live slice's live world ranks, in slice order
				myRun, myIdx := -1, -1
				for s := 0; s < pt0; s++ {
					var lv []int
					for wr := s * ps0; wr < (s+1)*ps0; wr++ {
						if !deadSet[wr] {
							if wr == world.Rank() {
								myRun, myIdx = len(live), len(lv)
							}
							lv = append(lv, wr)
						}
					}
					if len(lv) > 0 {
						live = append(live, lv)
					}
				}
				ptLive, ptNew = len(live), len(live)
				if remaining := nsteps - stepsDone; remaining > 0 && remaining < ptNew {
					ptNew = remaining
				}
				psNew = ps0
				for _, lv := range live[:ptNew] {
					psNew = min(psNew, len(lv))
				}
				wasActive, oldCol := active, col
				active = myRun < ptNew && myIdx < psNew
				thinned = myRun < ptNew && !active
				col = -1
				if active {
					col = myIdx
				}

				// Rebuild both communicator families. Retired ranks pass
				// color −1 and get comms they never use; what matters is
				// that every surviving rank participates in both splits.
				// Keyed by the rank's fixed slice index, the time split
				// renumbers the live slices 0..ptNew−1 in slice order.
				colorS, colorT := -1, -1
				if active {
					colorS, colorT = slice, col
				}
				spaceComm = surv.Split(colorS, myIdx)
				timeComm = surv.Split(colorT, slice)
				if active {
					spaceComm.SetLabel(fmt.Sprintf("space[slice=%d,gen=%d]", slice, rgen))
					spaceComm.FailFast(true)
					timeComm.SetLabel(fmt.Sprintf("time[col=%d,gen=%d]", col, rgen))
					timeComm.FailFast(true)
					timeComm.AttachTelemetry(cfg.Tel)
				}
				spanB.Stop()

				// Redistribute the committed block-start state. Before
				// anything was distributed (oldPS == 0) every live rank
				// already holds it: in fullU, or else in full itself.
				spanR := tRedist.Start()
				defer spanR.Stop()
				if oldPS > 0 {
					if lost = gatherFull(wasActive, oldCol); lost != nil {
						return nil
					}
				}

				// Re-partition onto the new width and rebuild solvers.
				bankEvals()
				solver = nil
				if active {
					local = hot.BlockPartition(full, col, psNew)
					lo, hi := hot.BlockRange(n, col, psNew)
					if fullU != nil {
						u = append([]float64(nil), fullU[6*lo:6*hi]...)
						local.Unpack(u)
					} else {
						u = local.PackNew()
					}
					var pcfg pfasst.Config
					pcfg, fineSys, coarseSys = levelSolver(spaceComm, cfg, local, grd)
					gs, err := pfasst.NewGridSolver(pcfg, &pres)
					if err != nil {
						return err
					}
					solver = gs
					grd.AttachSpace(spaceComm)
					grd.CommitState(u, block)
				} else {
					u, local = nil, nil
					solver = pfasst.NewRetiredSolver(cfg.Tel, &pres)
					grd.AttachSpace(nil)
				}
				oldPS = psNew
				return nil
			}()

			// Recovery verdict: any fatal (0) outranks any transport
			// failure (1) outranks success (2). Transport failures mean
			// a rank died mid-recovery — loop, the next round's dead set
			// includes it.
			v := int64(2)
			if err != nil {
				v = 1
			}
			if lost != nil {
				v = 0
			}
			switch world.Agree(v) {
			case 2:
				if len(dead) > shrunk {
					shrunk = len(dead)
					solver.RecordShrink()
					if thinned {
						cRetired.Inc()
					}
				}
				return nil
			case 1:
				spend = true
				continue
			default:
				if lost != nil {
					return lost
				}
				return fmt.Errorf("%w: detected by a peer during recovery", ErrStateLost)
			}
		}
	}

	// attemptOnce runs one guarded block attempt on this active rank.
	// fatal marks failures no retry can fix (scrub-ladder exhaustion).
	attemptOnce := func() (be []float64, aerr error, fatal bool) {
		defer func() {
			if p := recover(); p != nil {
				cerr, ok := mpi.AsCommFailure(p)
				if !ok {
					panic(p)
				}
				// Transport failure: wake peers blocked in deadline-less
				// spatial collectives, then vote to abort.
				spaceComm.Revoke()
				timeComm.Revoke()
				be, aerr, fatal = nil, cerr, false
			}
		}()
		if v := grd.ScrubState(u); v != nil {
			return nil, v, true
		}
		tn := t0 + (float64(stepsDone)+float64(timeComm.Rank()))*dt
		end, err := solver.BlockAttempt(timeComm, tn, dt, u, block, gen, retries)
		if errors.Is(err, pfasst.ErrBlockAbort) {
			spaceComm.Revoke()
			timeComm.Revoke()
		}
		return end, err, false
	}

	// commitCheckpoint persists the committed block under the grid
	// manifest: the first live slice's active ranks write the shards,
	// column 0 gathers the full state for the manifest invariants, and
	// one world agreement decides done (2) / skip after a death (1) /
	// fatal write error (0).
	commitCheckpoint := func() (redo bool, err error) {
		span := tCkpt.Start()
		defer span.Stop()
		v := int64(2)
		werr := func() (werr error) {
			defer func() {
				if p := recover(); p != nil {
					cerr, ok := mpi.AsCommFailure(p)
					if !ok {
						panic(p)
					}
					v = 1
					werr = cerr
				}
			}()
			if !active || timeComm.Rank() != 0 {
				return nil
			}
			st := &checkpoint.LevelState{
				Block:     block,
				StepsDone: stepsDone,
				TimeRanks: ptNew,
				T:         t0 + float64(stepsDone)*dt,
				U:         [][]float64{u},
			}
			if err := checkpoint.SaveGridShard(rz.CheckpointDir, col, st); err != nil {
				return err
			}
			// The Allgather doubles as the shard barrier: each column
			// contributes only after its own shard is durable, so when
			// column 0 has every share, every shard is on disk.
			//lint:ignore collective the members of a spatial communicator share one time slice, so the time-rank guard above is uniform across it
			all := spaceComm.AllgatherFloat64s(u)
			if col != 0 {
				return nil
			}
			// Only the guard reads the gathered state (the manifest's
			// invariants); without one the gather yields the dims alone.
			dims := make([]int, len(all))
			var fu []float64
			for j, x := range all {
				dims[j] = len(x)
				if grd != nil {
					fu = append(fu, x...)
				}
			}
			return checkpoint.CommitGridManifest(rz.CheckpointDir, &checkpoint.GridState{
				Block:      block,
				StepsDone:  stepsDone,
				TimeRanks:  ptNew,
				SpaceRanks: psNew,
				T:          t0 + float64(stepsDone)*dt,
				Dims:       dims,
				Diag:       grd.CheckpointDiag(fu),
			})
		}()
		if werr != nil && v == 2 {
			v = 0
		}
		switch world.Agree(v) {
		case 2:
			return false, nil
		case 1:
			// A rank died during the checkpoint phase. The block is
			// committed in memory; skip this checkpoint (the previous
			// manifest stays valid) and recover before the next block.
			return true, nil
		default:
			if werr != nil {
				return false, fmt.Errorf("core: block %d grid checkpoint: %w", block, werr)
			}
			return false, fmt.Errorf("core: block %d grid checkpoint failed on a peer", block)
		}
	}

	// The first "recovery" round is the initial decomposition (empty
	// dead set). It runs even when a resumed checkpoint already covers
	// every step, so the final Result always holds distributed state.
	// A block wider than the steps left calls a tail round, which
	// spends nothing.
	needRecovery, spend := true, false
	for {
		if needRecovery {
			if err := recoverGrid(spend); err != nil {
				return Result{}, err
			}
			needRecovery = false
		}
		remaining := nsteps - stepsDone
		if remaining <= 0 {
			break
		}
		if remaining < ptNew {
			needRecovery, spend = true, false
			continue
		}

		if boundary != nil {
			if err := boundary(block); err != nil {
				return Result{}, err
			}
		}

		world.FaultPoint("block", stepsDone)
		var blockEnd []float64
		var aerr error
		fatal := false
		if active {
			blockEnd, aerr, fatal = attemptOnce()
		}
		v := int64(2)
		if aerr != nil {
			v = 1
		}
		if fatal {
			v = 0
		}
		switch world.Agree(v) {
		case 2:
			stepsDone += ptNew
			block++
			gen++
			retries = 0
			lastAbort = nil
			if active {
				u = blockEnd
				grd.CommitState(u, block)
			}
			if psNew < ps0 || ptNew < pt0 {
				solver.RecordDegraded()
			}
			if rz.CheckpointDir != "" {
				redo, err := commitCheckpoint()
				if err != nil {
					return Result{}, err
				}
				if redo {
					needRecovery, spend = true, true
				}
			}
		case 1:
			gen++
			if aerr != nil {
				lastAbort = aerr
			}
			solver.RecordRestart()
			needRecovery, spend = true, true
		default:
			if aerr != nil {
				return Result{}, aerr
			}
			return Result{}, grd.PeerViolation("state-checksum", block)
		}
	}

	bankEvals()
	pres.FinalRanks = ptLive
	if !active {
		return Result{
			SpatialIndex: -1,
			TimeSlice:    slice,
			SpatialRanks: psNew,
			Participated: false,
			PFASST:       pres,
			FineEvals:    fineEvals,
			CoarseEvals:  coarseEvals,
		}, nil
	}
	pres.U = u
	out := local.Clone()
	out.Unpack(u)
	return Result{
		Local:        out,
		SpatialIndex: col,
		TimeSlice:    slice,
		SpatialRanks: psNew,
		Participated: true,
		PFASST:       pres,
		FineEvals:    fineEvals,
		CoarseEvals:  coarseEvals,
	}, nil
}
