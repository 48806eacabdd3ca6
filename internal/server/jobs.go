package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	nbody "repro"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/pfasst"
)

// Job outcome sentinels. Every terminal failure the daemon produces
// wraps exactly one of these — "fails typed" is the chaos suite's
// acceptance bar.
var (
	// ErrJobDeadline marks a job that exceeded its total wall-time
	// budget (across all attempts). The run stops at the next block
	// boundary; committed state remains on disk.
	ErrJobDeadline = errors.New("server: job deadline exceeded")
	// ErrRetriesExhausted marks a job whose retryable failures
	// outlived its retry budget.
	ErrRetriesExhausted = errors.New("server: retry budget exhausted")
	// ErrCheckpointCorrupt marks a job whose resume checkpoint failed
	// its checksum: the daemon refuses to silently restart from
	// nothing and fails the job typed instead.
	ErrCheckpointCorrupt = errors.New("server: checkpoint corrupt")
	// ErrJobCanceled marks a job canceled by the client (or the chaos
	// plan's simulated client).
	ErrJobCanceled = errors.New("server: job canceled")
	// ErrKilledDuringDrain is the cancel cause of the chaos plan's
	// simulated SIGKILL partway through a drain.
	ErrKilledDuringDrain = errors.New("server: killed during drain")
	// ErrUnknownJob rejects lookups of job IDs the daemon has never
	// journaled.
	ErrUnknownJob = errors.New("server: unknown job")
)

// errChaosCancel is the cancel cause of a chaos-plan mid-job cancel;
// it wraps ErrJobCanceled so classification matches a real client.
var errChaosCancel = fmt.Errorf("%w: chaos plan", ErrJobCanceled)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. Queued and Running are live; Done, Failed,
// Canceled and Shed are terminal and journaled; Interrupted is the
// drain state — NOT terminal and deliberately NOT journaled, so a
// restart replays the job as owed and resumes it from its checkpoint.
const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateCanceled    JobState = "canceled"
	StateShed        JobState = "shed"
	StateInterrupted JobState = "interrupted"
)

// JobStatus is the wire snapshot of one job.
type JobStatus struct {
	ID      uint64   `json:"id"`
	Tenant  string   `json:"tenant"`
	State   JobState `json:"state"`
	Attempt int      `json:"attempt"`
	Block   int      `json:"block"`
	Blocks  int      `json:"blocks"`
	Error   string   `json:"error,omitempty"`
	Hash    string   `json:"hash,omitempty"`
}

// job is the daemon's in-memory record of one submitted solve.
type job struct {
	seq  uint64
	spec *JobSpec

	mu       sync.Mutex
	state    JobState
	attempt  int
	block    int
	err      error
	hash     uint64
	cancel   context.CancelCauseFunc
	finished bool
	done     chan struct{}
}

func newJob(seq uint64, spec *JobSpec) *job {
	return &job{seq: seq, spec: spec, state: StateQueued, done: make(chan struct{})}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.seq,
		Tenant:  j.spec.Tenant,
		State:   j.state,
		Attempt: j.attempt,
		Block:   j.block,
		Blocks:  j.spec.Blocks(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateDone {
		st.Hash = fmt.Sprintf("%016x", j.hash)
	}
	return st
}

// setBlock records block progress (called from the solver's OnBlock
// hook).
func (j *job) setBlock(b int) {
	j.mu.Lock()
	j.block = b
	j.mu.Unlock()
}

// setCancel installs (or clears) the attempt's cancel function so a
// client cancel can reach a running solve.
func (j *job) setCancel(c context.CancelCauseFunc) {
	j.mu.Lock()
	j.cancel = c
	j.mu.Unlock()
}

// finish moves the job to a final (or interrupted) state and wakes
// waiters, once.
func (j *job) finish(state JobState, err error, hash uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.finished = true
	j.state = state
	j.err = err
	j.hash = hash
	j.cancel = nil
	close(j.done)
}

// beginAttempt transitions to running for the given attempt. It
// reports false when the job was already finished (canceled while
// queued, shed) — the runner must then drop it.
func (j *job) beginAttempt(attempt int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return false
	}
	j.state = StateRunning
	j.attempt = attempt
	return true
}

// jobDir is the per-job state directory (checkpoints + result) under
// the daemon's state root.
func (d *Daemon) jobDir(seq uint64) string {
	return filepath.Join(d.cfg.Dir, "jobs", fmt.Sprintf("job%08d", seq))
}

// stateHash is the FNV-1a fingerprint of a system's flat ODE state
// (positions, circulation vectors, σ): two runs are bitwise identical
// exactly when their hashes match.
func stateHash(sys *nbody.System) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(math.Float64bits(sys.Sigma))
	for _, v := range sys.PackNew() {
		mix(math.Float64bits(v))
	}
	return h
}

// backoffDelay is the bounded geometric retry backoff: base·2^attempt,
// capped at one second.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// sleepCtx sleeps for d unless ctx is canceled first; it reports
// whether the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// corruptCheckpoint flips one byte in the middle of the job's block
// checkpoint manifest — the chaos plan's bit-rot injection. Returns
// false when there is no checkpoint to damage yet.
func corruptCheckpoint(ckptDir string) bool {
	path := checkpoint.ManifestPath(ckptDir)
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return false
	}
	data[len(data)/2] ^= 0x40
	return os.WriteFile(path, data, 0o644) == nil
}

// runJob executes one job to a terminal (or interrupted) state: the
// retry loop around RunSpaceTimeCtx, with the chaos plan's crash and
// cancel injections wired into the block hook and the write-ahead
// journal recording every transition.
func (d *Daemon) runJob(j *job) {
	spec := j.spec
	blocks := spec.Blocks()
	sys, err := spec.BuildSystem()
	if err != nil {
		d.finalize(j, StateFailed, err, 0)
		return
	}
	var deadline time.Time
	if dl := spec.Deadline(d.cfg.DefaultDeadline); dl > 0 {
		deadline = time.Now().Add(dl)
	}
	budget := spec.RetryBudget(d.cfg.MaxRetries)
	ckptDir := filepath.Join(d.jobDir(j.seq), "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		d.finalize(j, StateFailed, fmt.Errorf("server: job %d state dir: %w", j.seq, err), 0)
		return
	}

	for attempt := 0; ; attempt++ {
		if !j.beginAttempt(attempt) {
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			d.finalize(j, StateFailed, fmt.Errorf("server: job %d before attempt %d: %w", j.seq, attempt, ErrJobDeadline), 0)
			return
		}
		var att [8]byte
		binary.LittleEndian.PutUint64(att[:], uint64(attempt))
		if err := d.journal.Append(Record{Kind: RecStart, Job: j.seq, Data: att[:]}); err != nil {
			d.finalize(j, StateFailed, err, 0)
			return
		}

		ctx, cancel := context.WithCancelCause(d.rootCtx)
		var dcancel context.CancelFunc = func() {}
		if !deadline.IsZero() {
			ctx, dcancel = context.WithDeadlineCause(ctx, deadline, ErrJobDeadline)
		}
		j.setCancel(cancel)

		cfg := spec.SolverConfig(ckptDir)
		crashBlock, crash := d.cfg.Chaos.CrashAt(j.seq, attempt, blocks)
		cancelBlock, chaosCancel := d.cfg.Chaos.CancelAt(j.seq, blocks)
		cfg.OnBlock = func(b int) {
			j.setBlock(b)
			if crash && b == crashBlock {
				cancel(fault.ErrWorkerCrash)
			}
			if chaosCancel && b == cancelBlock {
				cancel(errChaosCancel)
			}
		}

		out, _, rerr := nbody.RunSpaceTimeCtx(ctx, cfg, sys, spec.T0, spec.T1, spec.Steps)
		j.setCancel(nil)
		cause := context.Cause(ctx)
		dcancel()
		cancel(nil)

		if rerr == nil {
			hash := stateHash(out)
			if err := checkpoint.Save(filepath.Join(d.jobDir(j.seq), "result.nbck"), out); err != nil {
				d.finalize(j, StateFailed, fmt.Errorf("server: job %d result: %w", j.seq, err), 0)
				return
			}
			d.finalize(j, StateDone, nil, hash)
			return
		}

		switch {
		case errors.Is(cause, ErrDraining) || errors.Is(cause, ErrKilledDuringDrain):
			// Interrupted, not failed: no terminal journal record, so
			// the restart replays the job and resumes its checkpoint.
			j.finish(StateInterrupted, cause, 0)
			return
		case errors.Is(cause, ErrJobDeadline):
			d.finalize(j, StateFailed, fmt.Errorf("server: job %d attempt %d: %w", j.seq, attempt, ErrJobDeadline), 0)
			return
		case errors.Is(cause, ErrJobCanceled):
			d.finalize(j, StateCanceled, fmt.Errorf("server: job %d: %w", j.seq, cause), 0)
			return
		case errors.Is(rerr, checkpoint.ErrCorrupt):
			d.finalize(j, StateFailed, fmt.Errorf("server: job %d attempt %d: %w: %w", j.seq, attempt, ErrCheckpointCorrupt, rerr), 0)
			return
		case errors.Is(cause, fault.ErrWorkerCrash) || errors.Is(rerr, pfasst.ErrBlockAbort):
			if attempt >= budget {
				d.finalize(j, StateFailed, fmt.Errorf("server: job %d after %d attempts: %w: %w", j.seq, attempt+1, ErrRetriesExhausted, rerr), 0)
				return
			}
			d.tel.Counter("server.jobs.retried").Inc()
			if !sleepCtx(d.rootCtx, backoffDelay(d.cfg.RetryBackoff, attempt)) {
				j.finish(StateInterrupted, context.Cause(d.rootCtx), 0)
				return
			}
			if d.cfg.Chaos.CorruptCheckpoint(j.seq, attempt+1) {
				corruptCheckpoint(ckptDir)
			}
			continue
		default:
			d.finalize(j, StateFailed, fmt.Errorf("server: job %d attempt %d: %w", j.seq, attempt, rerr), 0)
			return
		}
	}
}

// finalize journals a terminal transition and moves the job there.
// Interrupted jobs never come through here — they are deliberately
// unjournaled so the restart owes them.
func (d *Daemon) finalize(j *job, state JobState, jerr error, hash uint64) {
	rec := Record{Job: j.seq}
	switch state {
	case StateDone:
		rec.Kind = RecDone
		var h [8]byte
		binary.LittleEndian.PutUint64(h[:], hash)
		rec.Data = h[:]
		d.tel.Counter("server.jobs.completed").Inc()
		d.tel.Counter(fmt.Sprintf("server.tenant.%s.completed", j.spec.Tenant)).Inc()
	case StateFailed:
		rec.Kind = RecFail
		rec.Data = []byte(jerr.Error())
		d.tel.Counter("server.jobs.failed").Inc()
		d.tel.Counter(fmt.Sprintf("server.tenant.%s.failed", j.spec.Tenant)).Inc()
	case StateCanceled:
		rec.Kind = RecCancel
		rec.Data = []byte(jerr.Error())
		d.tel.Counter("server.jobs.canceled").Inc()
	case StateShed:
		rec.Kind = RecShed
		rec.Data = []byte(jerr.Error())
		d.tel.Counter("server.jobs.shed").Inc()
	default:
		j.finish(state, jerr, hash)
		return
	}
	if err := d.journal.Append(rec); err != nil && jerr == nil {
		jerr = err
	}
	j.finish(state, jerr, hash)
}
