package mpi

import (
	"repro/internal/telemetry"
)

// Telemetry names of the message-passing runtime. Message counters are
// attributed to the registry of the rank doing the send or receive;
// collective timers measure the caller's blocking time (host wall
// clock by default — the registry's clock decides).
const (
	CounterSends     = "mpi.sends"
	CounterSendBytes = "mpi.send_bytes"
	CounterRecvs     = "mpi.recvs"
	CounterRecvBytes = "mpi.recv_bytes"

	// How receives that found no match ended (see Recv's wait rule):
	// polled counts those matched while polling, parked those that
	// parked on the mailbox at least once (RecvDeadline parks at once).
	// A receive whose message was already queued counts in neither, so
	// polled + parked ≤ recvs.
	CounterRecvPolled = "mpi.recv_polled"
	CounterRecvParked = "mpi.recv_parked"

	TimerBarrier   = "mpi.barrier"
	TimerBcast     = "mpi.bcast"
	TimerAllgather = "mpi.allgather"
	TimerAlltoall  = "mpi.alltoall"
	TimerAllreduce = "mpi.allreduce"

	// Fault-injection counters (see fault.go): injected counts every
	// fault the policy applied (drops, delays, corruptions, crashes),
	// recovered counts transport-absorbed faults (retransmits and
	// CRC-detected corrupt deliveries), lost counts messages dropped
	// permanently after retry exhaustion.
	CounterFaultInjected  = "fault.injected"
	CounterFaultRecovered = "fault.recovered"
	CounterFaultLost      = "fault.lost"
)

// Collective indices into commProbe.coll.
const (
	collBarrier = iota
	collBcast
	collAllgather
	collAlltoall
	collAllreduce
	collCount
)

// commProbe holds one rank's pre-resolved metric handles. Entries live
// in world.tel indexed by world rank, so the attachment survives
// communicator splits; all accesses happen under w.mu or through the
// probe() snapshot, and only the owning rank ever writes its slot.
type commProbe struct {
	sends, sendBytes, recvs, recvBytes       *telemetry.Counter
	recvPolled, recvParked                   *telemetry.Counter
	faultInjected, faultRecovered, faultLost *telemetry.Counter
	coll                                     [collCount]*telemetry.Timer
}

func newCommProbe(reg *telemetry.Registry) *commProbe {
	pb := &commProbe{
		sends:          reg.Counter(CounterSends),
		sendBytes:      reg.Counter(CounterSendBytes),
		recvs:          reg.Counter(CounterRecvs),
		recvBytes:      reg.Counter(CounterRecvBytes),
		recvPolled:     reg.Counter(CounterRecvPolled),
		recvParked:     reg.Counter(CounterRecvParked),
		faultInjected:  reg.Counter(CounterFaultInjected),
		faultRecovered: reg.Counter(CounterFaultRecovered),
		faultLost:      reg.Counter(CounterFaultLost),
	}
	// Collectives fire constantly inside solver phases; labeling their
	// spans would erase the enclosing phase's pprof label at every Stop.
	pb.coll[collBarrier] = reg.Timer(TimerBarrier).WithoutPprofLabel()
	pb.coll[collBcast] = reg.Timer(TimerBcast).WithoutPprofLabel()
	pb.coll[collAllgather] = reg.Timer(TimerAllgather).WithoutPprofLabel()
	pb.coll[collAlltoall] = reg.Timer(TimerAlltoall).WithoutPprofLabel()
	pb.coll[collAllreduce] = reg.Timer(TimerAllreduce).WithoutPprofLabel()
	return pb
}

// timer returns the collective timer (nil-safe for a detached rank).
func (pb *commProbe) timer(i int) *telemetry.Timer {
	if pb == nil {
		return nil
	}
	return pb.coll[i]
}

// AttachTelemetry routes this rank's message counters and collective
// timings to reg. The registry must be private to the rank (merge
// Snapshots across ranks afterwards); the attachment is keyed by world
// rank and therefore covers every communicator derived by Split.
// Attaching a nil registry detaches the rank. Call before spawning
// any worker goroutines that share the rank's communicators.
func (c *Comm) AttachTelemetry(reg *telemetry.Registry) {
	w := c.w
	var pb *commProbe
	if reg != nil {
		pb = newCommProbe(reg)
	}
	w.mu.Lock()
	w.tel[c.WorldRank()] = pb
	w.mu.Unlock()
}

// probe snapshots the caller's probe pointer (nil when detached).
func (c *Comm) probe() *commProbe {
	w := c.w
	w.mu.Lock()
	pb := w.tel[c.WorldRank()]
	w.mu.Unlock()
	return pb
}
