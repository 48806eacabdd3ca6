package mpi

// This file extends the resilience surface of fault.go from the time
// dimension to the full 2D communicator grid (ISSUE 8): explicit
// communicator revocation in the spirit of ULFM's MPI_Comm_revoke,
// opt-in fail-fast receives for communicators whose members may die
// mid-collective, deterministic shrinking onto an agreed dead set, and
// a helper that turns per-rank liveness observations into one agreed
// dead list.
//
// The crash-recovery problem the grid path has that the PS=1 path does
// not: a rank blocked in a *plain* spatial collective (tree build,
// branch exchange, guard allreduce) has no deadline and no dead member
// on its own communicator when the failure happened in a different
// time slice — it would block until the world-level deadlock detector
// fails the whole run. Revocation lets an aborting rank wake its
// spatial and temporal peers so every survivor reaches the grid-wide
// agreement round; fail-fast lets peers that share a communicator with
// the dead rank notice immediately instead of waiting out a deadline.

import (
	"errors"
	"fmt"
)

// ErrRevoked is the failure delivered to ranks blocked on (or later
// using) a communicator that a peer revoked with Revoke. It surfaces
// as a comm-failure panic from Recv (recover it with
// AsCommFailure) and as a plain error from RecvDeadline; match it with
// errors.Is.
var ErrRevoked = errors.New("mpi: communicator revoked")

// ErrTornPayload is the comm failure of the collectives that decode
// their own traffic (Split, AllgatherFloat64s), and of a Reader over a
// received block, when a block arrives torn (leak-mode corruption):
// the exchange completed, its content is unusable, and a recovery loop
// retries it like any transport failure.
var ErrTornPayload = errors.New("mpi: torn collective payload")

// commFailure is the panic value of fail-fast, revocation and
// torn-payload failures: a typed wrapper so recovery code can
// distinguish transport failures (recoverable — abort the block
// attempt, agree, shrink) from genuine bugs (which must keep crashing
// the rank). It implements error so an uncaught comm failure still
// surfaces cleanly from Run.
type commFailure struct{ err error }

func (f commFailure) Error() string { return f.err.Error() }
func (f commFailure) Unwrap() error { return f.err }

// tornPayload is the comm failure of collective op over a block of
// member rank r that arrived with an undecodable length.
func (c *Comm) tornPayload(op string, r, size int) commFailure {
	return commFailure{fmt.Errorf("%w (%s block of rank %d: %d bytes, %s)", ErrTornPayload, op, r, size, c.describe())}
}

// AsCommFailure reports whether a recovered panic value is a
// comm-failure (fail-fast dead member or revoked communicator) and
// returns the underlying error. Recovery loops use it to convert the
// panic into a block abort while re-panicking everything else:
//
//	defer func() {
//		if p := recover(); p != nil {
//			cerr, ok := mpi.AsCommFailure(p)
//			if !ok {
//				panic(p)
//			}
//			err = cerr
//		}
//	}()
func AsCommFailure(p any) (error, bool) {
	if f, ok := p.(commFailure); ok {
		return f.err, true
	}
	return nil, false
}

// FailFast opts this communicator handle into fail-fast receives:
// a blocking Recv that observes a dead member panics with
// a comm failure (AsCommFailure → ErrRankDead) instead of waiting for
// a message that can never arrive. The flag lives on the per-rank
// handle; every rank that wants the behavior sets it on its own handle
// (core's space-time grid loop sets it on both its spatial and
// temporal communicators). Plain communicators keep the default behavior, where
// a dead peer surfaces through deadline receives or the world-level
// deadlock detector.
func (c *Comm) FailFast(on bool) { c.failFast = on }

// SetLabel names the communicator in diagnostics: deadlock reports and
// comm-failure errors print the label instead of the raw identity, so
// a rank blocked on its *spatial* communicator is distinguishable from
// one blocked on its temporal one. The label is per-rank (set it on
// every member's handle).
func (c *Comm) SetLabel(name string) { c.label = name }

// describe renders the communicator identity for diagnostics.
//
//lint:coldpath formats a communicator only into a failure's diagnostic
func (c *Comm) describe() string {
	if c.label != "" {
		return "comm " + c.label
	}
	return fmt.Sprintf("comm %#x", c.id)
}

// Revoke marks this communicator revoked for every member: ranks
// blocked in a receive on it are woken and fail with ErrRevoked, and
// later receives fail the same way (queued matching messages are still
// delivered first). Revocation is permanent — recovery builds fresh
// communicators via Split or ShrinkTo, which derive new identities.
// An aborting rank revokes its communicators so peers blocked in plain
// collectives (which have no deadline) join the recovery protocol
// instead of waiting for the world-level deadlock detector.
func (c *Comm) Revoke() {
	w := c.w
	w.mu.Lock()
	if w.revoked == nil {
		w.revoked = make(map[uint64]bool)
	}
	if !w.revoked[c.id] {
		w.revoked[c.id] = true
		// Revocation is new information for blocked ranks: bump the
		// epoch exactly like a send, so a concurrent deadlock check
		// sees their registrations as stale (wakeup pending).
		w.epoch++
		w.allBox()
	}
	w.mu.Unlock()
}

// revokedOrDeadLocked returns the comm-failure error a fail-fast
// receive must deliver, or nil: revocation first (it is the explicit
// signal), then — only for fail-fast handles — a dead member. Must
// hold w.mu.
func (c *Comm) revokedOrDeadLocked() error {
	if c.w.revoked[c.id] {
		return fmt.Errorf("%w (%s)", ErrRevoked, c.describe())
	}
	if !c.failFast {
		return nil
	}
	if dr := c.deadMemberLocked(); dr >= 0 {
		return fmt.Errorf("%w (world rank %d, %s)", ErrRankDead, dr, c.describe())
	}
	return nil
}

// ShrinkTo returns a new communicator containing the members of c
// minus the given dead world ranks, in their current order. Unlike
// Shrink — which snapshots each caller's own view of the dead set —
// the survivor list here is a pure function of an explicitly agreed
// dead list (AgreeDeadRanks), so every caller constructs an identical
// communicator even when their local liveness views race with an
// ongoing failure. The caller must not be in the dead list.
//
//lint:coldpath recovery: runs once per failure, and allocates the new communicator
func (c *Comm) ShrinkTo(deadWorldRanks []int) *Comm {
	dead := make(map[int]bool, len(deadWorldRanks))
	for _, wr := range deadWorldRanks {
		dead[wr] = true
	}
	survivors := make([]int, 0, len(c.ranks))
	for _, wr := range c.ranks {
		if !dead[wr] {
			survivors = append(survivors, wr)
		}
	}
	return c.shrinkOnto(survivors)
}

// AgreeDeadRanks agrees on the dead members of c: one Agree round per
// member position, each contributing this rank's local liveness
// observation (1 = alive, 0 = dead). The min-fold unions the
// observations, so a member seen dead by ANY contributor — or one that
// never contributes because it is dead — lands in the result, and the
// Agree guarantee makes the returned list (ascending world ranks)
// identical on every caller. All live members must call it in
// lockstep, like any collective.
func (c *Comm) AgreeDeadRanks() []int {
	w := c.w
	var dead []int
	for _, wr := range c.ranks {
		w.mu.Lock()
		alive := int64(1)
		if w.dead[wr] {
			alive = 0
		}
		w.mu.Unlock()
		if c.Agree(alive) == 0 {
			dead = append(dead, wr)
		}
	}
	return dead
}
