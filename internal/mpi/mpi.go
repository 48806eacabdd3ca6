// Package mpi is an in-process message-passing runtime that plays the
// role of MPI in the paper's JUGENE runs: ranks are goroutines,
// point-to-point messages travel between per-rank mailboxes, and
// communicators can be split to build the PT×PS space-time grid of
// Fig. 2.
//
// Ranks share one address space, so the collectives that move blocks
// (Allgather, AllgatherBatchedOverlap, Alltoall) lend them instead of
// copying: a receiver reads the sender's own buffer, and a rank's own
// block comes back as is. The lending rule: neither side writes a
// block — the sender its argument, the receiver a block it was handed
// — until it has returned from a later all-rank collective on that
// communicator (by then every rank has finished reading what it was
// lent). The [][]byte such a collective returns belongs to the
// communicator and is overwritten by this rank's next call of the same
// collective on it (the two allgathers count as one). Float64 and
// int64 messages (SendFloat64s, the allreduces, BcastFloat64s) are
// encoded once into a buffer from a per-world free list, and the
// receiver that decodes one returns it there; Send copies.
//
// The runtime optionally maintains a LogGP-style virtual clock per
// rank: compute phases advance a rank's clock explicitly via Advance,
// and every receive synchronizes the receiver's clock with
// sendTime + latency + bytes/bandwidth. Because the collectives are
// implemented on top of point-to-point messages with realistic
// algorithms (dissemination barrier, binomial trees, ring Allgather,
// and the Bruck AllgatherBatchedOverlap, the default branch-node
// exchange of the tree code), modeled wall-clock times emerge from the
// actual message pattern of the executed program. A lent message is
// modeled at the byte size of its encoded form. This is the
// substitution for the 262,144-core Blue Gene/P installation: same
// algorithm, same messages, modeled time.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// AnySource matches messages from any source rank in Recv.
const AnySource = -1

// AnyTag matches messages with any tag in Recv.
const AnyTag = -1

// ErrDeadlock is the panic value delivered to every blocked rank when
// the runtime detects that all live ranks are blocked. The delivered
// error wraps ErrDeadlock and lists which ranks are blocked on which
// (src, tag) pairs; match it with errors.Is.
var ErrDeadlock = errors.New("mpi: deadlock detected (all ranks blocked)")

// TimeModel holds the LogGP-style parameters of the virtual clock.
type TimeModel struct {
	// Latency is the per-message latency in seconds.
	Latency float64
	// BytePeriod is the inverse bandwidth in seconds per byte.
	BytePeriod float64
}

// BlueGeneP returns a time model with parameters in the range of the
// IBM Blue Gene/P interconnect (≈3.5 µs MPI latency, ≈375 MB/s
// effective per-link bandwidth).
func BlueGeneP() TimeModel {
	return TimeModel{Latency: 3.5e-6, BytePeriod: 1 / 375.0e6}
}

type message struct {
	comm     uint64
	src, tag int
	// data is the payload; blocks is instead the lent block list of a
	// Bruck round. size is the modeled byte count the virtual clock,
	// the byte counters and the fault policy read: len(data), or
	// 8 + Σ(8 + len) for a block list (its framed encoding).
	data   []byte
	blocks [][]byte
	size   int
	sendVT float64
	// extraVT is added modeled latency injected by a fault policy
	// (delays and retransmit backoff); zero on the fault-free path.
	extraVT float64
	// pooled marks data as a buffer of the world's free list, which
	// the receiver that decodes it returns (see recycle).
	pooled bool
	// torn marks a block list a leak verdict tore: size is one byte
	// short, and the lender's blocks are untouched.
	torn bool
}

type mailbox struct {
	cond sync.Cond
	msgs []message
	// arrivals counts the events that can end a wait on this mailbox:
	// every post to it and every allBox wake-up (failure, rank death,
	// revocation, an Agree contribution). A polling receive reads it
	// without w.mu to learn that a re-check is worth the lock.
	arrivals atomic.Uint64
}

// pollYields is the number of runtime.Gosched calls a plain receive
// spends polling its mailbox's arrival count before it parks on the
// mailbox condition (see recv).
const pollYields = 50

// waitInfo records what a blocked rank is waiting for — the epoch it
// observed plus the (src, tag) pair of the pending receive (world src,
// AnySource/AnyTag wildcards; src == agreeWait marks an Agree) and the
// communicator it is blocked on (SetLabel names it), so a deadlock
// report distinguishes a rank stuck on its spatial communicator from
// one stuck on its temporal one. The communicator is described only
// when a report is built: a wait that ends in a message formats
// nothing.
type waitInfo struct {
	epoch    uint64
	src, tag int
	comm     *Comm
}

// agreeWait is the waitInfo src marker for ranks blocked in Agree.
const agreeWait = -2

type world struct {
	mu     sync.Mutex
	size   int
	live   int
	failed error
	timed  bool
	tm     TimeModel
	vt     []float64 // virtual clock per world rank
	boxes  []*mailbox
	tel    []*commProbe // telemetry probe per world rank (nil = off)
	allBox func()       // broadcast all conds (set in newWorld)

	// Fault injection (nil fault = disabled, zero cost): the policy is
	// consulted once per send under w.mu with a per-(src,dst) sequence
	// number, so verdicts are deterministic regardless of goroutine
	// interleaving. dead marks ranks that panicked (injected crashes
	// and genuine bugs alike) so RecvDeadline can fail fast instead of
	// blocking forever.
	fault FaultPolicy
	seq   []uint64 // per (src*size+dst) message sequence numbers
	dead  []bool
	agree map[agreeKey]*agreeSlot
	// revoked holds the identities of revoked communicators (nil until
	// the first Revoke): receives on a revoked comm fail with a typed
	// comm failure so blocked peers join recovery (see revoke.go).
	revoked map[uint64]bool

	// Deadlock detection: every send increments epoch; a rank that
	// scans its mailbox without a match registers in waiting with the
	// epoch it observed. The world is deadlocked exactly when every
	// live rank is registered at the *current* epoch — a stale epoch
	// means a message arrived after the scan and the rank has a wakeup
	// pending.
	epoch   uint64
	waiting map[int]waitInfo

	// free holds the encode buffers of delivered float64 and int64
	// messages for reuse (takeLocked, recycle).
	free [][]byte
}

func newWorld(size int, timed bool, tm TimeModel, fault FaultPolicy) *world {
	w := &world{size: size, live: size, timed: timed, tm: tm, fault: fault,
		waiting: make(map[int]waitInfo)}
	w.vt = make([]float64, size)
	w.tel = make([]*commProbe, size)
	w.dead = make([]bool, size)
	if fault != nil {
		w.seq = make([]uint64, size*size)
	}
	w.boxes = make([]*mailbox, size)
	for i := range w.boxes {
		w.boxes[i] = &mailbox{}
		w.boxes[i].cond.L = &w.mu
	}
	w.allBox = func() {
		for _, b := range w.boxes {
			b.arrivals.Add(1)
			b.cond.Broadcast()
		}
	}
	return w
}

// fail marks the world failed and wakes everybody. Must hold w.mu.
func (w *world) fail(err error) {
	if w.failed == nil {
		w.failed = err
	}
	w.allBox()
}

// deadlocked reports whether every live rank is registered as waiting
// at the current epoch. Must hold w.mu.
func (w *world) deadlocked() bool {
	if w.live == 0 || len(w.waiting) < w.live {
		return false
	}
	for _, wi := range w.waiting {
		if wi.epoch != w.epoch {
			return false
		}
	}
	return true
}

// deadlockError builds the diagnostic error delivered on deadlock: it
// wraps ErrDeadlock and reports, per blocked rank, the (src, tag) pair
// it is waiting on. Must hold w.mu.
//
//lint:coldpath builds the diagnostic of a world that is failing anyway
func (w *world) deadlockError() error {
	var sb []byte
	for r := 0; r < w.size; r++ {
		wi, ok := w.waiting[r]
		if !ok {
			continue
		}
		if len(sb) > 0 {
			sb = append(sb, "; "...)
		}
		switch {
		case wi.src == agreeWait:
			sb = append(sb, fmt.Sprintf("rank %d in Agree(%s)", r, wi.comm.describe())...)
		default:
			src := "any"
			if wi.src != AnySource {
				src = fmt.Sprintf("%d", wi.src)
			}
			tag := "any"
			if wi.tag != AnyTag {
				tag = fmt.Sprintf("%d", wi.tag)
			}
			sb = append(sb, fmt.Sprintf("rank %d in Recv(src=%s, tag=%s, %s)", r, src, tag, wi.comm.describe())...)
		}
	}
	if len(sb) == 0 {
		return ErrDeadlock
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, sb)
}

// Comm is one rank's view of a communicator. A Comm must only be used
// by the goroutine of its rank.
type Comm struct {
	w         *world
	id        uint64 // communicator identity (same on all members)
	rank      int    // rank within this communicator
	ranks     []int  // world ranks of the members, indexed by comm rank
	collSeq   int    // per-rank collective sequence number
	splitsRun int    // per-rank split sequence number
	agreeSeq  int    // per-rank Agree round sequence number
	failFast  bool   // fail-fast receives (see FailFast, revoke.go)
	label     string // diagnostic name (see SetLabel, revoke.go)

	// The result headers of the block collectives (see the package
	// doc), and the two block lists the Bruck rounds post by turns:
	// call n+2 rewrites call n's list only after this rank returned
	// from call n+1, by when every rank has read what n posted.
	gathered, exchanged [][]byte
	bruck               [2][][]byte
	bruckCalls          int
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.ranks[c.rank] }

// Run executes fn on size ranks of a fresh world communicator and
// waits for all of them. It returns the combined errors of all ranks;
// panics inside a rank are recovered and reported as errors (a rank
// that dies may cause ErrDeadlock on ranks waiting for it).
func Run(size int, fn func(*Comm) error) error {
	_, err := run(size, Options{}, fn)
	return err
}

// RunTimed is Run with virtual clocks enabled; it additionally returns
// the maximum virtual time over all ranks at completion — the modeled
// parallel wall-clock time of the run.
func RunTimed(size int, tm TimeModel, fn func(*Comm) error) (float64, error) {
	return run(size, Options{Timed: true, TM: tm}, fn)
}

// Options bundles the optional world parameters of RunOpts.
type Options struct {
	// Timed enables the LogGP virtual clocks with model TM.
	Timed bool
	TM    TimeModel
	// Fault, when non-nil, injects deterministic faults at the
	// send/receive boundary (see FaultPolicy). Nil costs nothing.
	Fault FaultPolicy
}

// RunOpts is Run with explicit world options (virtual clocks and/or a
// fault-injection policy). It returns the maximum virtual time over
// all ranks (zero untimed) and the combined rank errors; injected rank
// crashes surface as errors matching ErrInjectedCrash.
func RunOpts(size int, o Options, fn func(*Comm) error) (float64, error) {
	return run(size, o, fn)
}

func run(size int, o Options, fn func(*Comm) error) (float64, error) {
	if size < 1 {
		return 0, fmt.Errorf("mpi: world size %d < 1", size)
	}
	w := newWorld(size, o.Timed, o.TM, o.Fault)
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				p := recover()
				w.mu.Lock()
				w.live--
				if p != nil {
					// A dead rank (crash injection or a genuine bug)
					// is visible to RecvDeadline, Agree and fail-fast
					// receives; wake every waiter so they can fail
					// fast. The epoch bump marks their registrations
					// stale — like Revoke and every send — so the
					// deadlock check below treats them as
					// wakeup-pending instead of misreading the death
					// itself as a deadlock.
					w.dead[r] = true
					w.epoch++
					w.allBox()
				}
				if w.live > 0 && w.failed == nil && w.deadlocked() {
					w.fail(w.deadlockError())
				}
				w.mu.Unlock()
				if p != nil {
					if err, ok := p.(error); ok {
						errs[r] = fmt.Errorf("mpi: rank %d: %w", r, err)
					} else {
						errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
					}
				}
			}()
			errs[r] = fn(&Comm{w: w, rank: r, ranks: ranks})
		}(r)
	}
	wg.Wait()
	maxVT := 0.0
	for _, t := range w.vt {
		maxVT = math.Max(maxVT, t)
	}
	return maxVT, errors.Join(errs...)
}

// Advance adds the given modeled compute time (seconds) to the
// caller's virtual clock. It is a no-op without a time model.
func (c *Comm) Advance(seconds float64) {
	if !c.w.timed {
		return
	}
	c.w.mu.Lock()
	c.w.vt[c.WorldRank()] += seconds
	c.w.mu.Unlock()
}

// Now returns the caller's virtual clock (zero without a time model).
func (c *Comm) Now() float64 {
	if !c.w.timed {
		return 0
	}
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return c.w.vt[c.WorldRank()]
}

// Send delivers data to dst (a rank of this communicator) with the
// given tag. The send is buffered and never blocks; data is copied.
// User tags must be non-negative.
func (c *Comm) Send(dst, tag int, data []byte) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tags must be >= 0, got %d", tag))
	}
	c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data []byte) {
	buf := append([]byte(nil), data...)
	c.post(dst, tag, message{data: buf, size: len(buf)})
}

// post puts m into dst's mailbox as is: the message owns its payload
// (send's private copy, a free-list buffer) or borrows it under the
// lending rule.
func (c *Comm) post(dst, tag int, m message) {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	c.postLocked(dst, tag, m)
}

// postWords encodes x into a buffer from the world's free list and
// posts it, all in one hold of w.mu.
func (c *Comm) postWords(dst, tag int, x words) {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := w.takeLocked(8 * x.len())
	x.put(buf)
	c.postLocked(dst, tag, message{data: buf, size: len(buf), pooled: true})
}

// postLocked is post with w.mu held.
func (c *Comm) postLocked(dst, tag int, m message) {
	w := c.w
	if dst < 0 || dst >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", dst, len(c.ranks)))
	}
	me := c.WorldRank()
	if w.failed != nil {
		panic(w.failed)
	}
	w.epoch++
	if pb := w.tel[me]; pb != nil {
		pb.sends.Inc()
		pb.sendBytes.Add(int64(m.size))
	}
	if !c.judgeLocked(dst, tag, &m) {
		return
	}
	m.comm = c.id
	// The world rank: receivers translate their src argument to world
	// ranks, so matching works across communicators.
	m.src = me
	m.tag = tag
	m.sendVT = w.vt[me]
	box := w.boxes[c.ranks[dst]]
	box.msgs = append(box.msgs, m)
	box.arrivals.Add(1)
	box.cond.Broadcast()
}

// judgeLocked applies the fault policy's verdict (none without a
// policy) to m, keyed on the per-(src, dst) sequence number, and
// reports whether m is still to be delivered. Must hold w.mu.
func (c *Comm) judgeLocked(dst, tag int, m *message) bool {
	w := c.w
	if w.fault == nil {
		return true
	}
	me := c.WorldRank()
	pb := w.tel[me]
	dstW := c.ranks[dst]
	seq := w.seq[me*w.size+dstW]
	w.seq[me*w.size+dstW]++
	v := w.fault.Message(me, dstW, tag, seq, m.size)
	if v.Injected && pb != nil {
		pb.faultInjected.Inc()
	}
	if v.Recovered && pb != nil {
		pb.faultRecovered.Inc()
	}
	if v.Lost {
		// Retransmits exhausted: the message is dropped for good.
		// Upper layers see it as a missing message (timeout or
		// deadlock), exactly like a hard link failure.
		if pb != nil {
			pb.faultLost.Inc()
		}
		return false
	}
	m.extraVT = v.ExtraDelay
	if v.CorruptTruncate && m.size > 0 {
		// Leak mode: deliver a torn payload so receive-side validation
		// is exercised. The message's view is resliced (or, for a
		// block list, marked); the lender's bytes stay as they were.
		m.size--
		if m.blocks != nil {
			m.torn = true
		} else {
			m.data = m.data[:m.size]
		}
	}
	return true
}

// takeLocked returns a free-list buffer of length n — the smallest
// that fits — or a new one when none does. Must hold w.mu.
func (w *world) takeLocked(n int) []byte {
	best := -1
	for i, b := range w.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(w.free[best])) {
			best = i
		}
	}
	var buf []byte
	if best >= 0 {
		last := len(w.free) - 1
		buf = w.free[best]
		w.free[best] = w.free[last]
		w.free[last] = nil
		w.free = w.free[:last]
	}
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// recycle returns a decoded message's free-list buffer to the list.
func (w *world) recycle(m message) {
	if !m.pooled {
		return
	}
	w.mu.Lock()
	w.free = append(w.free, m.data[:0])
	w.mu.Unlock()
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its payload and actual source (as a communicator rank) and tag. Use
// AnySource / AnyTag as wildcards. Messages from a given source with a
// given tag are received in send order.
//
// The wait rule: a receive that finds no match first polls — it yields
// the processor while nothing new has reached its mailbox, up to a
// fixed budget of yields — and only then parks on the mailbox. The
// poll decides only which goroutine runs while a message is in flight;
// it changes no match, no order and no modeled time.
func (c *Comm) Recv(src, tag int) (data []byte, actualSrc, actualTag int) {
	m, cr := c.recvUser(src, tag)
	return m.data, cr, m.tag
}

// recv is Recv without the user-tag check (collectives use negative
// tags). A parked wait registers with the deadlock detector.
//
// Why it polls: a rank woken from cond.Wait is queued on the sender's
// processor, and when the other processor is idle its thread must be
// woken by the OS before it can steal the rank, so every dependent hop
// of a collective would pay a cross-core wake-up. A polling rank stays
// runnable and picks the message up on its next turn. The poll holds
// no registration, so the deadlock detector sees a polling rank as
// running until its budget is spent and it parks. RecvDeadline and
// Agree park at once: their waits are long (deadlines, recovery
// rounds), and yields there only take turns from the ranks doing the
// work. Polling in them as well raised the benchmark's daemon-fleet
// 80th-percentile job latency by 30 % on a 2-core host (PERFORMANCE.md,
// "Waiting for a message").
func (c *Comm) recv(src, tag int) (m message, actualSrc int) {
	wantWorldSrc := AnySource
	if src != AnySource {
		if src < 0 || src >= len(c.ranks) {
			panic(fmt.Sprintf("mpi: Recv from invalid rank %d (size %d)", src, len(c.ranks)))
		}
		wantWorldSrc = c.ranks[src]
	}
	box := c.w.boxes[c.WorldRank()]
	polled := false
	for budget := pollYields; ; polled = true {
		m, cr, seen, ok := c.await(box, wantWorldSrc, tag, polled, budget == 0)
		if ok {
			return m, cr
		}
		// Every post and wake-up bumps arrivals under w.mu, so nothing
		// that landed after await's scan goes unseen here.
		for budget > 0 && box.arrivals.Load() == seen {
			runtime.Gosched()
			budget--
		}
	}
}

// await scans box for the first message matching (wantWorldSrc, tag).
// Without a match it either returns the mailbox's arrival count, for
// recv's poll, or — with park set — registers with the deadlock
// detector and waits on the mailbox until a match comes. A match
// counts as parked when this call waited, else as polled when a poll
// preceded it (polled), else in neither wait counter.
func (c *Comm) await(box *mailbox, wantWorldSrc, tag int, polled, park bool) (message, int, uint64, bool) {
	w := c.w
	me := c.WorldRank()
	w.mu.Lock()
	defer w.mu.Unlock()
	for parked := false; ; parked = true {
		if w.failed != nil {
			panic(w.failed)
		}
		if m, cr, ok := c.matchLocked(box, wantWorldSrc, tag); ok {
			if pb := w.tel[me]; pb != nil {
				switch {
				case parked:
					pb.recvParked.Inc()
				case polled:
					pb.recvPolled.Inc()
				}
			}
			return m, cr, 0, true
		}
		// Queued matches are delivered above even on a revoked or
		// failing communicator; only a receive that would block fails.
		if err := c.revokedOrDeadLocked(); err != nil {
			panic(commFailure{err})
		}
		if !park {
			return message{}, -1, box.arrivals.Load(), false
		}
		w.waiting[me] = waitInfo{epoch: w.epoch, src: wantWorldSrc, tag: tag, comm: c}
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

// matchLocked scans box for the first message matching (wantWorldSrc,
// tag) on this communicator, removes it, applies virtual-clock arrival
// and telemetry accounting, and returns it with the source translated
// to a comm rank (-1 when the sender left the communicator, e.g. after
// a Shrink). Must hold w.mu.
func (c *Comm) matchLocked(box *mailbox, wantWorldSrc, tag int) (message, int, bool) {
	w := c.w
	me := c.WorldRank()
	for i, m := range box.msgs {
		if m.comm == c.id &&
			(wantWorldSrc == AnySource || m.src == wantWorldSrc) &&
			(tag == AnyTag || m.tag == tag) {
			box.msgs = append(box.msgs[:i], box.msgs[i+1:]...)
			if w.timed {
				arrive := m.sendVT + w.tm.Latency + float64(m.size)*w.tm.BytePeriod + m.extraVT
				if arrive > w.vt[me] {
					w.vt[me] = arrive
				}
			}
			if pb := w.tel[me]; pb != nil {
				pb.recvs.Inc()
				pb.recvBytes.Add(int64(m.size))
			}
			cr := -1
			for r, wr := range c.ranks {
				if wr == m.src {
					cr = r
					break
				}
			}
			return m, cr, true
		}
	}
	return message{}, -1, false
}

// internal collective tags: negative, namespaced by a per-comm
// sequence number so back-to-back collectives cannot cross-match.
func (c *Comm) collTag(opcode int) int {
	c.collSeq++
	return -(c.collSeq*16 + opcode + 1)
}

// Barrier blocks until every rank of the communicator has entered it.
// It uses a dissemination pattern with ⌈log2 P⌉ rounds.
func (c *Comm) Barrier() {
	p := c.Size()
	if p == 1 {
		return
	}
	defer c.probe().timer(collBarrier).Start().Stop()
	tag := c.collTag(0)
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		c.post(dst, tag, message{})
		c.recv(src, tag)
	}
}

// BcastFloat64s broadcasts root's x into x on every rank, in place,
// over a binomial tree: ⌈log2 P⌉ rounds, each message 8·len(x) bytes.
// Every rank passes an x of the same length; a received payload of
// any other length (a torn one) raises an ErrTornPayload comm failure.
func (c *Comm) BcastFloat64s(root int, x []float64) []float64 {
	if c.Size() == 1 {
		return x
	}
	defer c.probe().timer(collBcast).Start().Stop()
	c.bcastWords(root, words{f: x})
	return x
}

// bcastWords is BcastFloat64s's tree for either word type, without
// its timer: the allreduces end in it, and their broadcast half is
// allreduce time, not broadcast time. Every hop encodes x afresh.
func (c *Comm) bcastWords(root int, x words) {
	p := c.Size()
	tag := c.collTag(1)
	rel := (c.rank - root + p) % p
	if rel != 0 {
		parent := c.bcastParent(root, rel)
		m, _ := c.recv(parent, tag)
		c.decode("Bcast", parent, m, x, opSet)
	}
	for mask := nextPow2(rel); rel+mask < p; mask <<= 1 {
		c.postWords((rel+mask+root)%p, tag, x)
	}
}

// bcastParent is the binomial-tree parent of relative rank rel > 0:
// rel less its highest set bit.
func (c *Comm) bcastParent(root, rel int) int {
	mask := 1
	for mask<<1 <= rel {
		mask <<= 1
	}
	return (rel - mask + root) % c.Size()
}

// nextPow2 returns the smallest power of two strictly greater than rel
// when rel > 0, and 1 for rel == 0 (the first child distance of the
// binomial-tree root).
func nextPow2(rel int) int {
	m := 1
	for m <= rel {
		m <<= 1
	}
	return m
}

// headers returns s resized to p entries, reusing its capacity.
func headers(s [][]byte, p int) [][]byte {
	if cap(s) < p {
		return make([][]byte, p)
	}
	return s[:p]
}

// Allgather gathers every rank's block on every rank using a ring:
// P−1 rounds, each passing the most recently received block to the
// right neighbor — the cost structure of the paper's Fig. 5, which the
// tree code's BranchRing exchange runs (BranchBatched, its default,
// runs AllgatherBatchedOverlap). Blocks are lent and the result is the
// communicator's, under the package doc's rule: out[c.Rank()] is data
// itself, and a forwarded block is the view the rank received.
func (c *Comm) Allgather(data []byte) [][]byte {
	p := c.Size()
	c.gathered = headers(c.gathered, p)
	out := c.gathered
	out[c.rank] = data
	if p == 1 {
		return out
	}
	defer c.probe().timer(collAllgather).Start().Stop()
	tag := c.collTag(3)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	cur := c.rank
	for round := 0; round < p-1; round++ {
		c.post(right, tag, message{data: out[cur], size: len(out[cur])})
		m, _ := c.recv(left, tag)
		cur = (cur - 1 + p) % p
		out[cur] = m.data
	}
	return out
}

// AllgatherBatchedOverlap gathers every rank's block on every rank
// like Allgather, but with the Bruck algorithm: ⌈log2 P⌉ rounds, each
// sending the accumulated blocks as ONE batched message to a partner
// at doubling distance. The result is identical to Allgather; only the
// message pattern differs. On the virtual clock the chained rounds
// cost ⌈log2 P⌉ latencies instead of the ring's P−1, while the total
// byte volume stays ≈ the same — this is the default branch-node
// exchange of the parallel tree code (DESIGN.md §15). A round posts
// the list of blocks it holds, as views, modeled at the size of its
// framed encoding, [count, (len, bytes)...] with 8-byte headers;
// lending and the result follow the package doc's rule.
//
// overlap, when non-nil, runs after the first round's send has been
// posted and before the first receive. A rank can therefore do local
// work (advancing its virtual clock) while the round-0 messages of
// all ranks are in flight — compute/communication overlap that the
// virtual clock honors, because a receive only synchronizes the
// receiver's clock forward (max of own clock and arrival time). A torn
// round (leak-mode corruption) raises an ErrTornPayload comm failure.
func (c *Comm) AllgatherBatchedOverlap(data []byte, overlap func()) [][]byte {
	p := c.Size()
	c.gathered = headers(c.gathered, p)
	out := c.gathered
	out[c.rank] = data
	if p == 1 {
		if overlap != nil {
			overlap()
		}
		return out
	}
	defer c.probe().timer(collAllgather).Start().Stop()
	tag := c.collTag(7)
	// blocks[d] is the block of rank (c.rank+d) mod p; after the round
	// at distance k the caller holds distances [0, min(2k, p)). Appends
	// never move it (capacity p), so a posted prefix stays valid.
	turn := &c.bruck[c.bruckCalls&1]
	c.bruckCalls++
	if cap(*turn) < p {
		*turn = make([][]byte, 0, p)
	}
	blocks := append((*turn)[:0], data)
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank - k + p) % p
		src := (c.rank + k) % p
		cnt := min(k, p-k)
		size := 8
		for _, b := range blocks[:cnt] {
			size += 8 + len(b)
		}
		c.post(dst, tag, message{blocks: blocks[:cnt:cnt], size: size})
		if k == 1 && overlap != nil {
			overlap()
		}
		m, _ := c.recv(src, tag)
		if m.torn {
			panic(c.tornPayload("Allgather", src, m.size))
		}
		blocks = append(blocks, m.blocks...)
	}
	*turn = blocks
	for d := 1; d < p; d++ {
		out[(c.rank+d)%p] = blocks[d]
	}
	return out
}

// Alltoall delivers data[i] to rank i and returns the blocks received
// from every rank (out[j] = block sent by rank j). data must have one
// entry per rank. Blocks are lent and the result is the
// communicator's, under the package doc's rule: out[c.Rank()] is
// data[c.Rank()] itself.
func (c *Comm) Alltoall(data [][]byte) [][]byte {
	p := c.Size()
	if len(data) != p {
		panic(fmt.Sprintf("mpi: Alltoall needs %d blocks, got %d", p, len(data)))
	}
	defer c.probe().timer(collAlltoall).Start().Stop()
	tag := c.collTag(4)
	c.exchanged = headers(c.exchanged, p)
	out := c.exchanged
	out[c.rank] = data[c.rank]
	// Send to increasing offsets, receive from decreasing ones; the
	// offset schedule avoids head-of-line blocking.
	for k := 1; k < p; k++ {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		c.post(dst, tag, message{data: data[dst], size: len(data[dst])})
		m, _ := c.recv(src, tag)
		out[src] = m.data
	}
	return out
}

// Op is a reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin

	// opSet is the decode of a received payload: it overwrites.
	opSet Op = -1
)

// AllreduceFloat64 reduces x elementwise over all ranks, in place
// (MPI_IN_PLACE), and returns x, which then holds the same result on
// every rank. Reduce-to-root follows a binomial tree, then the result
// is broadcast. Every rank passes an x of the same length; a received
// payload of any other length (a torn one) raises an ErrTornPayload
// comm failure.
func (c *Comm) AllreduceFloat64(x []float64, op Op) []float64 {
	c.allreduce(words{f: x}, op, 5)
	return x
}

// AllreduceInt64 is AllreduceFloat64 for int64 values. It reduces in
// integer arithmetic on its own path: routed through float64, a sum,
// max or min would be exact only within ±2^53.
func (c *Comm) AllreduceInt64(x []int64, op Op) []int64 {
	c.allreduce(words{i: x}, op, 6)
	return x
}

// allreduce is the allreduces' body: the children of the binomial tree
// rooted at rank 0 fold into x in mask order, then bcastWords.
func (c *Comm) allreduce(x words, op Op, opcode int) {
	p := c.Size()
	if p == 1 {
		return
	}
	defer c.probe().timer(collAllreduce).Start().Stop()
	tag := c.collTag(opcode)
	rel := c.rank // root 0
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			c.postWords(rel-mask, tag, x)
			break
		}
		if rel+mask < p {
			m, _ := c.recv(rel+mask, tag)
			c.decode("Allreduce", rel+mask, m, x, op)
		}
	}
	c.bcastWords(0, x)
}

// decode folds the float64 or int64 payload of a received message into
// x with fold (opSet overwrites) and returns a free-list buffer to the
// list. This is the one decode of typed traffic: a payload that is not
// exactly 8·len(x) bytes long — torn by leak-mode corruption — raises
// an ErrTornPayload comm failure naming op and member rank src.
func (c *Comm) decode(op string, src int, m message, x words, fold Op) {
	if err := c.decodeErr(op, src, m, x, fold); err != nil {
		panic(commFailure{err})
	}
}

// decodeErr is decode returning the failure's error instead of raising it.
func (c *Comm) decodeErr(op string, src int, m message, x words, fold Op) error {
	ok := x.fold(fold, m.data)
	c.w.recycle(m)
	if !ok {
		return c.tornPayload(op, src, len(m.data)).err
	}
	return nil
}

// Split partitions the communicator: ranks passing the same color form
// a new communicator, ordered by (key, rank). Every rank of c must
// call Split. This is how the PT×PS grid of Fig. 2 is built: one split
// by time-slice color yields the spatial (PEPC) communicators, one
// split by intra-slice index yields the temporal (PFASST)
// communicators. A torn membership block (leak-mode corruption) raises
// an ErrTornPayload comm failure.
//
//lint:coldpath communicator setup: runs once per grid build or recovery round, and allocates the new communicator
func (c *Comm) Split(color, key int) *Comm {
	c.splitsRun++
	// Exchange (color, key, worldRank) via Allgather.
	payload := Int64sToBytes([]int64{int64(color), int64(key), int64(c.WorldRank())})
	all := c.Allgather(payload)
	type member struct{ color, key, rank, wrank int }
	var group []member
	for r, raw := range all {
		var v [3]int64
		if !(words{i: v[:]}).fold(opSet, raw) {
			panic(c.tornPayload("Split", r, len(raw)))
		}
		if int(v[0]) == color {
			group = append(group, member{int(v[0]), int(v[1]), r, int(v[2])})
		}
	}
	// Sort by (key, parent rank) — insertion sort keeps this allocation-free.
	for i := 1; i < len(group); i++ {
		for j := i; j > 0 && (group[j].key < group[j-1].key ||
			(group[j].key == group[j-1].key && group[j].rank < group[j-1].rank)); j-- {
			group[j], group[j-1] = group[j-1], group[j]
		}
	}
	ranks := make([]int, len(group))
	myRank := -1
	for i, m := range group {
		ranks[i] = m.wrank
		if m.wrank == c.WorldRank() {
			myRank = i
		}
	}
	return &Comm{
		w:     c.w,
		id:    childID(c.id, c.splitsRun, color),
		rank:  myRank,
		ranks: ranks,
	}
}

// childID derives a deterministic identity for a split result: all
// members of one color group compute the same value, and distinct
// (parent, split number, color) triples map to distinct identities
// with overwhelming probability (FNV-1a over the triple).
func childID(parent uint64, splitSeq, color int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(parent)
	mix(uint64(splitSeq))
	mix(uint64(uint(color)))
	return h
}
