package mpi

// This file is the resilience surface of the in-process MPI runtime:
// deterministic fault injection at the send boundary (FaultPolicy),
// crash points (FaultPoint / ErrInjectedCrash), bounded-wait receives
// with typed failures (RecvDeadline / ErrRankDead / ErrTimeout),
// failure-aware communicator shrinking (Shrink) and a ULFM-style
// agreement collective (Agree) that completes despite dead members.
// Everything is nil-checked: a world without a fault policy pays a
// single pointer comparison, and none of the hot send/recv paths
// allocate for the disabled case.

import (
	"errors"
	"fmt"
	"time"
)

// ErrInjectedCrash is the panic value of a rank killed by the fault
// plan; it surfaces from Run as an error matching errors.Is. Drivers
// that enabled crash injection filter it out of the joined rank errors.
var ErrInjectedCrash = errors.New("mpi: injected rank crash (fault plan)")

// ErrRankDead is returned by RecvDeadline when a member of the
// communicator has died: a pipelined exchange cannot complete once any
// participant is gone, so the call fails fast instead of waiting for
// its full deadline.
var ErrRankDead = errors.New("mpi: peer rank dead")

// ErrTimeout is returned by RecvDeadline when no matching message
// arrived within the deadline.
var ErrTimeout = errors.New("mpi: receive deadline exceeded")

// FaultVerdict is a fault policy's decision for one message.
type FaultVerdict struct {
	// Injected marks that any fault was injected into this message
	// (drop, delay or corruption) — drives the fault.injected counter.
	Injected bool
	// Recovered marks faults absorbed by the transport's bounded
	// retry-with-backoff (retransmitted drops, CRC-detected corrupt
	// deliveries) — drives the fault.recovered counter. The payload is
	// delivered intact; only modeled latency is added.
	Recovered bool
	// ExtraDelay is modeled latency (seconds) added to the message's
	// arrival: injected link delay plus retransmission backoff.
	ExtraDelay float64
	// Lost drops the message permanently (retries exhausted). The
	// receiver observes a missing message: ErrTimeout, ErrRankDead or
	// a diagnosed deadlock, never silent corruption.
	Lost bool
	// CorruptTruncate delivers the payload torn (one byte short) so
	// receive-side validation is exercised; used by leak-mode chaos
	// tests of the checked decoders.
	CorruptTruncate bool
}

// FaultPolicy decides, deterministically, the fate of every message
// and the crash schedule of every rank. Message is called under the
// world lock with a per-(src,dst) sequence number, so a seeded policy
// yields reproducible chaos runs regardless of goroutine interleaving.
// Implementations must be pure functions of their arguments.
type FaultPolicy interface {
	// Message judges the seq-th message from world rank src to world
	// rank dst with the given user/collective tag and payload size.
	Message(src, dst, tag int, seq uint64, size int) FaultVerdict
	// CrashAt reports whether the given world rank must crash at the
	// named phase point (see Comm.FaultPoint).
	CrashAt(rank int, phase string, epoch int) bool
}

// FaultPoint is a crash point: integrators call it at phase boundaries
// ("block", "iter", "predictor", ...) and a fault plan can kill the
// calling rank there with panic(ErrInjectedCrash). Without a fault
// policy it is a single nil check.
func (c *Comm) FaultPoint(phase string, epoch int) {
	f := c.w.fault
	if f == nil {
		return
	}
	if !f.CrashAt(c.WorldRank(), phase, epoch) {
		return
	}
	w := c.w
	w.mu.Lock()
	if pb := w.tel[c.WorldRank()]; pb != nil {
		pb.faultInjected.Inc()
	}
	w.mu.Unlock()
	// The rank goroutine's recover marks the rank dead and wakes all
	// waiters (see run).
	panic(ErrInjectedCrash)
}

// deadMemberLocked returns the lowest dead world rank of this
// communicator, or -1. Must hold w.mu.
func (c *Comm) deadMemberLocked() int {
	for _, wr := range c.ranks {
		if c.w.dead[wr] {
			return wr
		}
	}
	return -1
}

// RecvDeadline is Recv with a bounded wait and typed failures: it
// returns ErrRankDead as soon as any member of the communicator is
// dead (a pipelined exchange cannot complete without it, so waiting
// out the full deadline would only slow recovery down), and ErrTimeout
// when no matching message arrives within timeout (host time). A
// matching message that is already queued is returned even if a member
// has died. The wait does not participate in deadlock detection — the
// deadline is its liveness bound — and it parks at once, without the
// poll of Recv's wait rule (see recv for why).
func (c *Comm) RecvDeadline(src, tag int, timeout time.Duration) (data []byte, actualSrc, actualTag int, err error) {
	m, cr, err := c.recvDeadline(src, tag, timeout)
	return m.data, cr, m.tag, err
}

//lint:coldpath the deadline receive arms a host timer per call (its closure and time.AfterFunc allocate)
func (c *Comm) recvDeadline(src, tag int, timeout time.Duration) (message, int, error) {
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("mpi: RecvDeadline tag %d invalid", tag))
	}
	wantWorldSrc := AnySource
	if src != AnySource {
		if src < 0 || src >= len(c.ranks) {
			panic(fmt.Sprintf("mpi: RecvDeadline from invalid rank %d (size %d)", src, len(c.ranks)))
		}
		wantWorldSrc = c.ranks[src]
	}
	w := c.w
	me := c.WorldRank()
	box := w.boxes[me]
	deadline := time.Now().Add(timeout)
	// The wake-up timer fires once at the deadline; cond.Wait has no
	// native timeout, so the timer broadcasts the mailbox condition.
	timer := time.AfterFunc(timeout, func() {
		w.mu.Lock()
		box.cond.Broadcast()
		w.mu.Unlock()
	})
	defer timer.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	for parked := false; ; parked = true {
		if w.failed != nil {
			panic(w.failed)
		}
		if m, cr, ok := c.matchLocked(box, wantWorldSrc, tag); ok {
			if pb := w.tel[me]; pb != nil && parked {
				pb.recvParked.Inc()
			}
			return m, cr, nil
		}
		if w.revoked[c.id] {
			return message{}, 0, fmt.Errorf("%w (%s)", ErrRevoked, c.describe())
		}
		if dr := c.deadMemberLocked(); dr >= 0 {
			return message{}, 0, fmt.Errorf("%w (world rank %d)", ErrRankDead, dr)
		}
		if !time.Now().Before(deadline) {
			return message{}, 0, fmt.Errorf("%w (src %d, tag %d after %v)", ErrTimeout, src, tag, timeout)
		}
		box.cond.Wait()
	}
}

// RecvFloat64sDeadline is RecvFloat64sInto with RecvDeadline's bounded
// wait: transport failures and a payload that is not 8·len(dst) bytes
// long (a torn one, ErrTornPayload) both surface as errors instead of
// panics.
func (c *Comm) RecvFloat64sDeadline(dst []float64, src, tag int, timeout time.Duration) error {
	m, cr, err := c.recvDeadline(src, tag, timeout)
	if err != nil {
		return err
	}
	return c.decodeErr("Recv", cr, m, words{f: dst}, opSet)
}

// Shrink returns a new communicator containing the surviving (live)
// members of c in their current order; the caller's rank is its index
// among the survivors. Every surviving member must call Shrink at a
// point where all of them observe the same dead set — the Agree
// collective provides that synchronization (survivors agree to abort a
// block, then shrink). The derived identity is a pure function of the
// parent identity and the survivor list, so all survivors construct
// matching communicators without communication.
//
//lint:coldpath recovery: runs once per failure, and allocates the new communicator
func (c *Comm) Shrink() *Comm {
	w := c.w
	w.mu.Lock()
	survivors := make([]int, 0, len(c.ranks))
	for _, wr := range c.ranks {
		if !w.dead[wr] {
			survivors = append(survivors, wr)
		}
	}
	w.mu.Unlock()
	return c.shrinkOnto(survivors)
}

// shrinkOnto builds the communicator of the given surviving world
// ranks (a subsequence of c.ranks): the identity is a pure function of
// the parent identity and the survivor list, so every survivor
// constructs a matching communicator without communication. Shared by
// Shrink (local dead-set snapshot) and ShrinkTo (agreed dead set).
func (c *Comm) shrinkOnto(survivors []int) *Comm {
	id := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			id ^= v & 0xff
			id *= 1099511628211
			v >>= 8
		}
	}
	mix(c.id)
	mix(0x5368726b) // "Shrk": domain-separate from Split's childID
	for _, wr := range survivors {
		mix(uint64(wr))
	}
	myRank := -1
	for i, wr := range survivors {
		if wr == c.WorldRank() {
			myRank = i
		}
	}
	if myRank < 0 {
		panic("mpi: Shrink called by a dead or excluded rank")
	}
	return &Comm{w: c.w, id: id, rank: myRank, ranks: survivors}
}

// agreeKey identifies one agreement round: communicator identity plus
// the per-rank round sequence number (all members call Agree in
// lockstep, so their sequence numbers match).
type agreeKey struct {
	comm uint64
	gen  int
}

// agreeSlot collects the contributions of one agreement round. A
// poster stays in Agree until the round is done (crashes fire only at
// FaultPoint), so left, set to the poster count at completion, counts
// the posters still to return; the last one deletes the slot.
type agreeSlot struct {
	posts  map[int]int64 // world rank → contributed value
	done   bool
	result int64
	left   int
}

// Agree is a failure-aware agreement collective in the spirit of
// ULFM's MPI_Comm_agree: every live member contributes a value and all
// of them return the same result — the minimum over the contributions
// received before completion. Members that die before contributing are
// excluded; members that contributed and then died still count. The
// round completes as soon as every live member has contributed, so a
// crash never blocks the agreement forever. Resilient PFASST uses it
// as the block-commit protocol: all survivors learn identically
// whether a block completed everywhere (min == 1) or must be redone
// from the checkpoint (min == 0).
//
//lint:coldpath recovery and block commit of the resilient loop: each round allocates its agreement slot
func (c *Comm) Agree(v int64) int64 {
	c.agreeSeq++
	key := agreeKey{comm: c.id, gen: c.agreeSeq}
	w := c.w
	me := c.WorldRank()
	box := w.boxes[me]
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.agree == nil {
		w.agree = make(map[agreeKey]*agreeSlot)
	}
	slot := w.agree[key]
	if slot == nil {
		slot = &agreeSlot{posts: make(map[int]int64, len(c.ranks))}
		w.agree[key] = slot
	}
	slot.posts[me] = v
	// A contribution is new information for ranks blocked in plain
	// Recv scans; bump the epoch exactly like a send does.
	w.epoch++
	w.allBox()
	for {
		if w.failed != nil {
			panic(w.failed)
		}
		if !slot.done {
			complete := true
			for _, wr := range c.ranks {
				if _, posted := slot.posts[wr]; !posted && !w.dead[wr] {
					complete = false
					break
				}
			}
			if complete {
				slot.done = true
				slot.left = len(slot.posts)
				first := true
				for _, pv := range slot.posts {
					if first || pv < slot.result {
						slot.result = pv
					}
					first = false
				}
				w.allBox()
			}
		}
		if slot.done {
			slot.left--
			if slot.left == 0 {
				delete(w.agree, key)
			}
			return slot.result
		}
		// Blocked agreements participate in deadlock detection (a lone
		// survivor stuck here after a botched multi-failure recovery
		// should fail the world, not hang the process).
		w.waiting[me] = waitInfo{epoch: w.epoch, src: agreeWait, tag: agreeWait, comm: c}
		if w.deadlocked() {
			err := w.deadlockError()
			delete(w.waiting, me)
			w.fail(err)
			panic(w.failed)
		}
		box.cond.Wait()
		delete(w.waiting, me)
	}
}
