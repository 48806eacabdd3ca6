package pfasst

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mpi"
)

// Resilience configures fault-tolerant execution. Its driver is
// core's grid loop (internal/core owns the grid, so it owns recovery):
// each block ends in a ULFM-style agreement that commits or aborts it
// identically on every survivor, rank deaths shrink the PT×PS grid,
// and the block restarts from its consistent start state. Steps that
// no longer fill a block after a shrink run as one shorter block on
// fewer time slices. This package reads RecvTimeout (BlockAttempt's
// link); the other fields parameterize the driver.
type Resilience struct {
	// RecvTimeout, when positive, bounds every pipelined receive of a
	// block attempt in host time: the attempt runs on the deadline link,
	// and a block whose receive times out is aborted and retried. Zero
	// runs the plain link (blocking fail-fast receives, tree
	// collectives), which a crash still cannot hang: the grid loop's
	// communicators fail fast on a dead peer.
	RecvTimeout time.Duration
	// CheckpointDir, when non-empty, persists the committed block-start
	// state there after every block — one NBLV shard per spatial
	// column under a checksummed grid.nblm manifest (package
	// checkpoint), written by the first live time slice — and Resume
	// restarts from it.
	CheckpointDir string
	// Resume loads the checkpoint at startup and continues from the
	// recorded block instead of t0, on whatever PT×PS the resuming run
	// has. A missing manifest is not an error — the run simply starts
	// from the beginning.
	Resume bool
	// MaxBlockRetries bounds how many consecutive recovery rounds
	// without a newly agreed rank death a single block may consume
	// before the run gives up: transport aborts and guard rejections
	// alike. Zero means DefaultMaxBlockRetries.
	MaxBlockRetries int
}

const (
	// DefaultRecvTimeout is a receive deadline long enough that only a
	// lost message reaches it; the façade exports it as
	// nbody.DefaultRecvTimeout, which the job daemon sets.
	DefaultRecvTimeout     = 10 * time.Second
	DefaultMaxBlockRetries = 3
)

// errBlockAbort wraps any failure that aborts a block attempt.
var errBlockAbort = errors.New("pfasst: block attempt aborted")

// link is how one block attempt talks to its time communicator: the
// attempt generation its message tags embed and the deadline of every
// receive. Without a deadline it is the plain transport — blocking
// receives, the tree Bcast/Allreduce, the plain tag space — whose
// exact message sequence the modeled Blue Gene/P clock depends on; a
// retry on it is safe because every retried attempt runs on
// communicators core's recovery round has just rebuilt.
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

// ctrlTag spaces the control-plane messages (end-value broadcast,
// deadline allreduce) of one attempt generation.
func (l link) ctrlTag(seq int) int {
	return resTagBase + l.gen*resGenSpan + resCtrl + seq
}

// recv receives a slice-end value into dst, which has the state's
// length.
func (l link) recv(c *mpi.Comm, dst []float64, src, tag int) error {
	if l.timeout == 0 {
		c.RecvFloat64sInto(dst, src, tag)
		return nil
	}
	return c.RecvFloat64sDeadline(dst, src, tag, l.timeout)
}

// bcastEnd distributes the last rank's slice-end value and returns it
// as a fresh slice on every rank. Deadline branch: rank p-1 sends
// linearly, everyone else does a bounded wait.
func (l link) bcastEnd(c *mpi.Comm, uEnd []float64) ([]float64, error) {
	p := c.Size()
	root := p - 1
	end := append([]float64(nil), uEnd...)
	if l.timeout == 0 {
		return c.BcastFloat64s(root, end), nil
	}
	if c.Rank() == root {
		for dst := 0; dst < root; dst++ {
			c.SendFloat64s(dst, l.ctrlTag(1), uEnd)
		}
		return end, nil
	}
	if err := c.RecvFloat64sDeadline(end, root, l.ctrlTag(1), l.timeout); err != nil {
		return nil, fmt.Errorf("%w: end broadcast: %w", errBlockAbort, err)
	}
	return end, nil
}

// allreduceMax is the Tol convergence check's allreduce(max) of
// iteration seq. Deadline branch: gather at rank 0, then scatter.
func (l link) allreduceMax(c *mpi.Comm, v float64, seq int) (float64, error) {
	var x [1]float64
	x[0] = v
	if l.timeout == 0 {
		return c.AllreduceFloat64(x[:], mpi.OpMax)[0], nil
	}
	p := c.Size()
	if p == 1 {
		return v, nil
	}
	tag := l.ctrlTag(2 + 2*seq)
	if c.Rank() == 0 {
		m := v
		for src := 1; src < p; src++ {
			if err := c.RecvFloat64sDeadline(x[:], src, tag, l.timeout); err != nil {
				return 0, fmt.Errorf("%w: allreduce gather: %w", errBlockAbort, err)
			}
			if x[0] > m {
				m = x[0]
			}
		}
		x[0] = m
		for dst := 1; dst < p; dst++ {
			c.SendFloat64s(dst, tag+1, x[:])
		}
		return m, nil
	}
	c.SendFloat64s(0, tag, x[:])
	if err := c.RecvFloat64sDeadline(x[:], 0, tag+1, l.timeout); err != nil {
		return 0, fmt.Errorf("%w: allreduce result: %w", errBlockAbort, err)
	}
	return x[0], nil
}
