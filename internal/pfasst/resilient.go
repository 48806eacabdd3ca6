package pfasst

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/sdc"
)

// Resilience configures fault-tolerant execution of Run. When Enabled,
// the time loop survives rank crashes: every pipelined receive carries
// a deadline, each block ends in a ULFM-style agreement that commits or
// aborts it identically on every survivor, a crashed rank shrinks the
// time communicator, and the block restarts from its consistent start
// state. Steps that no longer fit a parallel block after shrinking run
// through a serial SDC fallback. With Enabled false (the zero value)
// the solver follows the plain code path, byte for byte.
type Resilience struct {
	Enabled bool
	// RecvTimeout bounds every pipelined receive in host time; a block
	// whose receive times out is aborted and retried. Zero means
	// DefaultRecvTimeout.
	RecvTimeout time.Duration
	// CheckpointDir, when non-empty, persists the committed block-start
	// state to <dir>/pfasst.nblv (written atomically by the first
	// surviving rank) after every block, and Resume restarts from it.
	CheckpointDir string
	// Resume loads the checkpoint at startup and continues from the
	// recorded block instead of t0. A missing file is not an error —
	// the run simply starts from the beginning.
	Resume bool
	// FallbackSweeps is the serial-SDC sweep count per step for the
	// degraded tail (steps that cannot fill a parallel block after a
	// shrink). Zero means DefaultFallbackSweeps.
	FallbackSweeps int
	// MaxBlockRetries bounds how many times a single block may be
	// retried (shrinks excluded) before the run gives up. Zero means
	// DefaultMaxBlockRetries.
	MaxBlockRetries int
}

const (
	DefaultRecvTimeout     = 10 * time.Second
	DefaultFallbackSweeps  = 8
	DefaultMaxBlockRetries = 3
)

func (r Resilience) recvTimeout() time.Duration {
	if r.RecvTimeout > 0 {
		return r.RecvTimeout
	}
	return DefaultRecvTimeout
}

func (r Resilience) fallbackSweeps() int {
	if r.FallbackSweeps > 0 {
		return r.FallbackSweeps
	}
	return DefaultFallbackSweeps
}

func (r Resilience) maxBlockRetries() int {
	if r.MaxBlockRetries > 0 {
		return r.MaxBlockRetries
	}
	return DefaultMaxBlockRetries
}

// checkpointPath is the block-checkpoint file within CheckpointDir.
func (r Resilience) checkpointPath() string {
	return filepath.Join(r.CheckpointDir, "pfasst.nblv")
}

// errBlockAbort wraps any failure that aborts a block attempt.
var errBlockAbort = errors.New("pfasst: block attempt aborted")

// link is how one block attempt talks to its time communicator: the
// attempt generation its message tags embed and the deadline of every
// receive. The zero value is the lockstep transport — blocking
// receives, the tree Bcast/Allreduce, the plain tag space — whose
// exact message sequence the modeled Blue Gene/P clock depends on.
// With a deadline every receive is bounded and fails with a typed
// error instead of blocking forever, tags live above the plain space
// and embed gen so a retried block can never match a stale message
// queued by a failed attempt, and the two collectives become linear
// exchanges of deadline receives (a tree collective would hang in
// plain Recv when a participant dies mid-collective).
type link struct {
	gen     int
	timeout time.Duration
}

const (
	tagBase    = 800000
	resTagBase = 1 << 24
	resGenSpan = 1 << 20
	resCtrl    = 1 << 19
)

// tag is the message tag of one pipelined exchange of the block body.
func (l link) tag(lvl, iter int, predictor bool) int {
	k := iter*64 + lvl*2
	if predictor {
		k++
	}
	if l.timeout == 0 {
		return tagBase + k
	}
	return resTagBase + l.gen*resGenSpan + k
}

// ctrlTag spaces the control-plane messages (serial tail, end-value
// broadcast, deadline allreduce) of one attempt generation.
func (l link) ctrlTag(seq int) int {
	return resTagBase + l.gen*resGenSpan + resCtrl + seq
}

func (l link) recv(c *mpi.Comm, src, tag int) ([]float64, error) {
	if l.timeout == 0 {
		return c.RecvFloat64s(src, tag), nil
	}
	return c.RecvFloat64sDeadline(src, tag, l.timeout)
}

// bcastEnd distributes the last rank's slice-end value and returns it
// as a fresh slice on every rank. Deadline branch: rank p-1 sends
// linearly, everyone else does a bounded wait.
func (l link) bcastEnd(c *mpi.Comm, uEnd []float64) ([]float64, error) {
	p := c.Size()
	root := p - 1
	if l.timeout == 0 {
		return mpi.BytesToFloat64s(c.Bcast(root, mpi.Float64sToBytes(uEnd))), nil
	}
	if c.Rank() == root {
		for dst := 0; dst < root; dst++ {
			c.SendFloat64s(dst, l.ctrlTag(1), uEnd)
		}
		return append([]float64(nil), uEnd...), nil
	}
	got, err := c.RecvFloat64sDeadline(root, l.ctrlTag(1), l.timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: end broadcast: %w", errBlockAbort, err)
	}
	return got, nil
}

// allreduceMax is the Tol convergence check's allreduce(max) of
// iteration seq. Deadline branch: gather at rank 0, then scatter.
func (l link) allreduceMax(c *mpi.Comm, v float64, seq int) (float64, error) {
	if l.timeout == 0 {
		return c.AllreduceFloat64([]float64{v}, mpi.OpMax)[0], nil
	}
	p := c.Size()
	if p == 1 {
		return v, nil
	}
	tag := l.ctrlTag(2 + 2*seq)
	if c.Rank() == 0 {
		m := v
		for src := 1; src < p; src++ {
			x, err := c.RecvFloat64sDeadline(src, tag, l.timeout)
			if err != nil || len(x) != 1 {
				return 0, fmt.Errorf("%w: allreduce gather: %w", errBlockAbort, err)
			}
			if x[0] > m {
				m = x[0]
			}
		}
		for dst := 1; dst < p; dst++ {
			c.SendFloat64s(dst, tag+1, []float64{m})
		}
		return m, nil
	}
	c.SendFloat64s(0, tag, []float64{v})
	x, err := c.RecvFloat64sDeadline(0, tag+1, l.timeout)
	if err != nil || len(x) != 1 {
		return 0, fmt.Errorf("%w: allreduce result: %w", errBlockAbort, err)
	}
	return x[0], nil
}

// runResilient is the fault-tolerant time loop for one time
// communicator (PS = 1). The lockstep loop indexes blocks statically;
// here the communicator can shrink mid-run, so the loop tracks
// committed steps and carves off one block of cur.Size() steps at a
// time, falling back to serial SDC for a tail narrower than the
// communicator. Each block is the same attempt the lockstep loop runs,
// on a deadline link; its verdict folds into one agreement that
// commits or aborts the block identically on every survivor.
func (s *GridSolver) runResilient(comm *mpi.Comm, t0, t1 float64, nsteps int, u0 []float64) error {
	cfg, res := s.cfg, s.res
	rz := cfg.Resilience
	dt := (t1 - t0) / float64(nsteps)
	fullSize := comm.Size()
	cur := comm
	u := append([]float64(nil), u0...)
	stepsDone := 0
	block := 0
	// lk.gen is the block-attempt generation, identical on all survivors.
	lk := link{timeout: rz.recvTimeout()}

	if rz.Resume && rz.CheckpointDir != "" {
		st, err := checkpoint.LoadLevels(rz.checkpointPath())
		switch {
		case err == nil:
			if len(st.U) == 0 || len(st.U[0]) != len(u0) {
				return fmt.Errorf("pfasst: checkpoint dim does not match problem dim %d", len(u0))
			}
			// Guard vetting: a flipped body word that happens to keep the
			// file checksum intact (or was flipped before the checksum was
			// computed) cannot reproduce the stored invariants.
			if v := cfg.Guard.ValidateCheckpoint(st.U[0], st.Diag, st.Block); v != nil {
				return fmt.Errorf("pfasst: resume rejected: %w", v)
			}
			stepsDone = st.StepsDone
			block = st.Block
			u = append(u[:0], st.U[0]...)
			if stepsDone > nsteps {
				return fmt.Errorf("pfasst: checkpoint has %d steps done, run wants %d", stepsDone, nsteps)
			}
		case errors.Is(err, fs.ErrNotExist):
			// Missing checkpoint: start from the beginning.
		default:
			// A present-but-unreadable checkpoint (bad magic, truncation,
			// checksum mismatch) is corruption, not absence: resuming
			// from t0 would silently discard committed work.
			return fmt.Errorf("pfasst: resume: %w", err)
		}
	}
	g := cfg.Guard
	// A rank-local guard verdict folds into an agreement before anyone
	// acts on it, here and at the scrub below: on real hardware
	// corruption is rank-local, and a lone early return would strand
	// every surviving peer in the block agreement (the PR 8 deadlock
	// class nbodylint's collective rule flags). Under the deterministic
	// fault model the verdict is identical on every survivor — the plan
	// hash excludes the rank and u holds the committed state — so the
	// agreement is always unanimous and the round costs one posted int64
	// per survivor. Without a guard there is no verdict and no round.
	if v := g.ValidateState(u, "initial state", block); g != nil && cur.Agree(vote(v == nil)) == 0 {
		if v == nil {
			v = g.PeerViolation("initial-state", block)
		}
		g.RecordAbort()
		return v
	}
	g.CommitState(u, block)

	retries := 0
	for stepsDone < nsteps {
		if cfg.Boundary != nil {
			if err := cfg.Boundary(block); err != nil {
				return err
			}
		}
		// ScrubState repairs memory corruption in place and fails only
		// after exhausting the rollback ladder.
		if v := g.ScrubState(u); g != nil && cur.Agree(vote(v == nil)) == 0 {
			if v == nil {
				v = g.PeerViolation("state-checksum", block)
			}
			return v
		}
		p := cur.Size()
		if nsteps-stepsDone < p {
			// Degraded tail: fewer steps remain than survivors. Serial
			// SDC on the first rank, result broadcast to the rest. The
			// tail verdict folds into an agreement like the block
			// verdict below: every survivor commits, shrinks, or
			// aborts together, so a rank-local receive timeout can
			// never strand its peers in a later collective. The
			// snapshot makes a disagreed retry restart from the
			// committed block-start state even on ranks whose tail
			// receive already overwrote u.
			uSave := append([]float64(nil), u...)
			terr := s.runSerialTail(cur, lk, t0, dt, nsteps, stepsDone, u)
			if cur.Agree(vote(terr == nil)) == 0 {
				copy(u, uSave)
				if s.shrinkIfDead(&cur) {
					lk.gen++
					continue
				}
				if terr == nil {
					terr = fmt.Errorf("pfasst: block %d: serial tail failed on a peer", block)
				}
				return terr
			}
			s.RecordDegraded()
			stepsDone = nsteps
			break
		}

		cur.FaultPoint("block", stepsDone)
		tn := t0 + (float64(stepsDone)+float64(cur.Rank()))*dt
		// Guard verdicts and transport failures fold into the same
		// agreement: either aborts the block identically on every
		// survivor.
		blockEnd, err := s.attempt(cur, lk, tn, dt, u, block, retries)
		verdict := cur.Agree(vote(err == nil))
		lk.gen++
		if verdict == 1 {
			// Commit: every survivor holds the identical end value.
			stepsDone += p
			block++
			retries = 0
			u = blockEnd
			g.CommitState(u, block)
			if p < fullSize {
				s.RecordDegraded()
			}
			if rz.CheckpointDir != "" {
				// Rank 0 writes the checkpoint; the verdict is agreed
				// so a rank-local disk failure aborts every survivor
				// together instead of stranding the peers in the next
				// block's collectives (core's grid checkpoint folds
				// its shard verdict the same way).
				var werr error
				if cur.Rank() == 0 {
					st := &checkpoint.LevelState{
						Block:     block,
						StepsDone: stepsDone,
						TimeRanks: p,
						T:         t0 + float64(stepsDone)*dt,
						U:         [][]float64{u},
						Diag:      g.CheckpointDiag(u),
					}
					werr = checkpoint.SaveLevels(rz.checkpointPath(), st)
				}
				if cur.Agree(vote(werr == nil)) == 0 {
					if werr != nil {
						return fmt.Errorf("pfasst: block %d checkpoint: %w", block, werr)
					}
					return fmt.Errorf("pfasst: block %d checkpoint failed on a peer", block)
				}
			}
			continue
		}

		// Abort: restore is implicit — u still holds the consistent
		// block-start state. A death shrinks the communicator; a
		// transient abort retries with a bounded budget.
		s.RecordRestart()
		if s.shrinkIfDead(&cur) {
			retries = 0
			continue
		}
		retries++
		if retries > rz.maxBlockRetries() {
			return fmt.Errorf("pfasst: block %d failed %d attempts: %w", block, retries, err)
		}
	}

	res.U = u
	res.FinalRanks = cur.Size()
	return nil
}

// vote is a rank's contribution to a commit agreement (Agree takes the
// minimum): 1 to commit, 0 to abort.
func vote(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

// shrinkIfDead replaces *cur with its survivor communicator when a
// member has died; it reports whether a shrink happened. All survivors
// reach this point with the same dead set — the preceding Agree is the
// synchronization point.
func (s *GridSolver) shrinkIfDead(cur **mpi.Comm) bool {
	c := *cur
	if c.AliveCount() == c.Size() {
		return false
	}
	*cur = c.Shrink()
	s.RecordShrink()
	return true
}

// runSerialTail integrates the remaining (< cur.Size()) steps with
// serial SDC on rank 0 and broadcasts the result: the degraded-mode
// guarantee is completion within tolerance, not speedup.
func (s *GridSolver) runSerialTail(cur *mpi.Comm, lk link, t0, dt float64, nsteps, stepsDone int, u []float64) error {
	rz := s.cfg.Resilience
	remaining := nsteps - stepsDone
	fine := s.cfg.Levels[0]
	if cur.Rank() == 0 {
		in := sdc.NewIntegrator(fine.Sys, fine.NNodes, rz.fallbackSweeps())
		tn := t0 + float64(stepsDone)*dt
		in.Integrate(tn, tn+float64(remaining)*dt, remaining, u)
		s.res.SweepsFine += remaining * rz.fallbackSweeps()
		for dst := 1; dst < cur.Size(); dst++ {
			cur.SendFloat64s(dst, lk.ctrlTag(0), u)
		}
		return nil
	}
	got, err := cur.RecvFloat64sDeadline(0, lk.ctrlTag(0), lk.timeout*time.Duration(remaining+1))
	if err != nil {
		return fmt.Errorf("%w: serial tail: %w", errBlockAbort, err)
	}
	copy(u, got)
	return nil
}
