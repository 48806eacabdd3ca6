package mpi

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// attachAll gives every rank of a p-rank world its own registry.
func attachAll(p int) []*telemetry.Registry {
	regs := make([]*telemetry.Registry, p)
	for i := range regs {
		regs[i] = telemetry.New()
	}
	return regs
}

func mergeAll(regs []*telemetry.Registry) telemetry.Snapshot {
	var merged telemetry.Snapshot
	for _, r := range regs {
		merged.Merge(r.Snapshot())
	}
	return merged
}

// TestAllreduceRecordsNoBcast: the allreduces end in a broadcast, and
// that half is allreduce time. With nothing else broadcasting, the
// mpi.bcast timer records no span while mpi.allreduce records one per
// call and rank.
func TestAllreduceRecordsNoBcast(t *testing.T) {
	const p, k = 4, 5
	regs := attachAll(p)
	err := Run(p, func(c *Comm) error {
		c.AttachTelemetry(regs[c.Rank()])
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				c.AllreduceFloat64([]float64{1}, OpSum)
			} else {
				c.AllreduceInt64([]int64{1}, OpMax)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mergeAll(regs)
	if n := s.Timer(TimerBcast).Count; n != 0 {
		t.Fatalf("%s counts %d spans under %d allreduces, want 0", TimerBcast, n, k)
	}
	if n := s.Timer(TimerAllreduce).Count; n != p*k {
		t.Fatalf("%s counts %d spans, want %d (%d calls on %d ranks)", TimerAllreduce, n, p*k, k, p)
	}
	if n := regs[0].Snapshot().Timer(TimerAllreduce).Count; n != k {
		t.Fatalf("rank 0 records %d allreduce spans, want %d", n, k)
	}
}

// TestRecvWaitCounters: a receive whose message was queued before a
// Barrier finds its match at once and counts in neither wait counter;
// a receive whose sender waits until it is parked counts as parked.
func TestRecvWaitCounters(t *testing.T) {
	regs := attachAll(2)
	err := Run(2, func(c *Comm) error {
		reg := regs[c.Rank()]
		c.AttachTelemetry(reg)
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("queued"))
			c.Barrier()
			w := c.w
			for blocked := false; !blocked; runtime.Gosched() {
				w.mu.Lock()
				wi, ok := w.waiting[1]
				blocked = ok && wi.epoch == w.epoch && wi.tag == 8
				w.mu.Unlock()
			}
			c.Send(1, 8, []byte("late"))
			return nil
		}
		c.Barrier()
		before := reg.Snapshot()
		c.Recv(0, 7)
		after := reg.Snapshot()
		for _, name := range []string{CounterRecvPolled, CounterRecvParked} {
			if d := after.Counter(name) - before.Counter(name); d != 0 {
				return fmt.Errorf("a queued match moved %s by %d", name, d)
			}
		}
		if d := after.Counter(CounterRecvs) - before.Counter(CounterRecvs); d != 1 {
			return fmt.Errorf("a queued match moved %s by %d, want 1", CounterRecvs, d)
		}
		c.Recv(0, 8)
		last := reg.Snapshot()
		if d := last.Counter(CounterRecvParked) - after.Counter(CounterRecvParked); d != 1 {
			return fmt.Errorf("a receive matched after parking moved %s by %d, want 1", CounterRecvParked, d)
		}
		if d := last.Counter(CounterRecvPolled) - after.Counter(CounterRecvPolled); d != 0 {
			return fmt.Errorf("a receive matched after parking moved %s by %d, want 0", CounterRecvPolled, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvWaitCountersBound: on a stress run, deadline receives
// included, every receive ends in at most one way, so polled + parked
// never exceeds the receives.
func TestRecvWaitCountersBound(t *testing.T) {
	const p, rounds = 8, 20
	regs := attachAll(p)
	err := Run(p, func(c *Comm) error {
		c.AttachTelemetry(regs[c.Rank()])
		right, left := (c.Rank()+1)%p, (c.Rank()-1+p)%p
		for i := 0; i < rounds; i++ {
			c.SendFloat64s(right, 3, []float64{float64(i)})
			c.RecvFloat64s(left, 3)
			c.Send(left, 4, nil)
			if _, _, _, err := c.RecvDeadline(right, 4, time.Minute); err != nil {
				return err
			}
			c.AllreduceFloat64([]float64{1}, OpSum)
			blocks := make([][]byte, p)
			c.Alltoall(blocks)
			c.AllgatherBatchedOverlap([]byte{byte(i)}, nil)
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mergeAll(regs)
	recvs, polled, parked := s.Counter(CounterRecvs), s.Counter(CounterRecvPolled), s.Counter(CounterRecvParked)
	if recvs == 0 || recvs != s.Counter(CounterSends) {
		t.Fatalf("recvs = %d, sends = %d", recvs, s.Counter(CounterSends))
	}
	if polled+parked > recvs {
		t.Fatalf("polled %d + parked %d > recvs %d", polled, parked, recvs)
	}
}
