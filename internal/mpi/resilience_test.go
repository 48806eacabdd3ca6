package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// planStub is a minimal deterministic FaultPolicy for runtime tests
// (the real seeded plan lives in internal/fault, which depends on this
// package).
type planStub struct {
	verdict func(src, dst, tag int, seq uint64) FaultVerdict
	crash   func(rank int, phase string, epoch int) bool
}

func (p planStub) Message(src, dst, tag int, seq uint64, size int) FaultVerdict {
	if p.verdict == nil {
		return FaultVerdict{}
	}
	return p.verdict(src, dst, tag, seq)
}

func (p planStub) CrashAt(rank int, phase string, epoch int) bool {
	return p.crash != nil && p.crash(rank, phase, epoch)
}

func TestRecvDeadlineTimeout(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			_, _, _, err := c.RecvDeadline(1, 7, 30*time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("want ErrTimeout, got %v", err)
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvDeadlineDelivers(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(10 * time.Millisecond)
			c.Send(0, 7, []byte("late"))
			return nil
		}
		data, src, tag, err := c.RecvDeadline(1, 7, 2*time.Second)
		if err != nil {
			return err
		}
		if string(data) != "late" || src != 1 || tag != 7 {
			return fmt.Errorf("got %q from %d tag %d", data, src, tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvDeadlineDetectsDeadRank(t *testing.T) {
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return rank == 1 && phase == "work" && epoch == 0
	}}
	start := time.Now()
	_, err := RunOpts(2, Options{Fault: pol}, func(c *Comm) error {
		if c.Rank() == 1 {
			c.FaultPoint("work", 0)
			t.Error("rank 1 survived its crash point")
			return nil
		}
		_, _, _, err := c.RecvDeadline(1, 3, 30*time.Second)
		if !errors.Is(err, ErrRankDead) {
			return fmt.Errorf("want ErrRankDead, got %v", err)
		}
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("run error should carry the injected crash, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("dead-rank detection took %v; should fail fast, not wait out the deadline", el)
	}
}

func TestRecvDeadlinePrefersQueuedMessageOverDeath(t *testing.T) {
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return rank == 1 && phase == "after-send" && epoch == 0
	}}
	_, err := RunOpts(2, Options{Fault: pol}, func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(0, 3, []byte("parting gift"))
			c.FaultPoint("after-send", 0)
			return nil
		}
		// Wait until the peer is certainly dead, then receive: the
		// queued message must still be delivered.
		for aliveCount(c) == 2 {
			time.Sleep(time.Millisecond)
		}
		data, _, _, err := c.RecvDeadline(1, 3, time.Second)
		if err != nil {
			return fmt.Errorf("queued message lost to death: %w", err)
		}
		if string(data) != "parting gift" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrInjectedCrash) {
		t.Fatal(err)
	}
}

func TestShrinkAfterCrash(t *testing.T) {
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return rank == 1 && phase == "go" && epoch == 0
	}}
	_, err := RunOpts(4, Options{Fault: pol}, func(c *Comm) error {
		c.FaultPoint("go", 0)
		// Survivors: wait for the death, then shrink and verify the
		// small communicator is fully functional.
		for aliveCount(c) == 4 {
			time.Sleep(time.Millisecond)
		}
		s := c.Shrink()
		if s.Size() != 3 {
			return fmt.Errorf("shrunk size %d", s.Size())
		}
		wantRank := map[int]int{0: 0, 2: 1, 3: 2}[c.Rank()]
		if s.Rank() != wantRank {
			return fmt.Errorf("world rank %d got shrunk rank %d, want %d", c.Rank(), s.Rank(), wantRank)
		}
		sum := s.AllreduceInt64([]int64{int64(c.Rank())}, OpSum)
		if sum[0] != 0+2+3 {
			return fmt.Errorf("allreduce over survivors = %d", sum[0])
		}
		if got := s.Agree(int64(10 + s.Rank())); got != 10 {
			return fmt.Errorf("agree on shrunk comm = %d", got)
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrInjectedCrash) {
		t.Fatal(err)
	}
}

func TestAgreeUnanimousAndMin(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if got := c.Agree(1); got != 1 {
			return fmt.Errorf("unanimous agree = %d", got)
		}
		v := int64(1)
		if c.Rank() == 2 {
			v = 0
		}
		if got := c.Agree(v); got != 0 {
			return fmt.Errorf("min agree = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAgreeCompletesAcrossDeath(t *testing.T) {
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return rank == 0 && phase == "pre-agree" && epoch == 0
	}}
	var results [3]int64
	_, err := RunOpts(3, Options{Fault: pol}, func(c *Comm) error {
		c.FaultPoint("pre-agree", 0)
		got := c.Agree(int64(c.Rank() + 5))
		results[c.Rank()] = got
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("expected injected crash in joined error, got %v", err)
	}
	// Rank 0 died before posting: survivors agree on min(6, 7) = 6 and
	// must all see the same value.
	if results[1] != 6 || results[2] != 6 {
		t.Fatalf("survivor agree results %v", results)
	}
}

// TestAgreeFreesSlots: every agreement round's slot is deleted once
// its last poster returns, so a world that agrees once per block does
// not grow by a slot per block — also across a round in which a member
// died before posting (the dead rank is never counted as a poster).
func TestAgreeFreesSlots(t *testing.T) {
	const rounds, dieAt = 1000, 500
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return rank == 3 && phase == "pre-agree" && epoch == dieAt
	}}
	var w *world
	_, err := RunOpts(4, Options{Fault: pol}, func(c *Comm) error {
		if c.Rank() == 0 {
			w = c.w
		}
		for i := 0; i < rounds; i++ {
			c.FaultPoint("pre-agree", i)
			want := int64(0) // rank 3 posts the minimum
			if i >= dieAt {
				want = 1 // rank 3 is gone: rank 2's post is the minimum
			}
			if got := c.Agree(int64(3 - c.Rank())); got != want {
				return fmt.Errorf("round %d: agree = %d, want %d", i, got, want)
			}
		}
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("expected the injected crash in the joined error, got %v", err)
	}
	if n := len(w.agree); n != 0 {
		t.Fatalf("%d agreement slots left after %d rounds, want 0", n, rounds)
	}
}

func TestTransientFaultsDeliverIdenticalPayloads(t *testing.T) {
	// Drops (with retransmit), delays and absorbed corruption must be
	// invisible to the application except through virtual time and
	// counters.
	pol := planStub{verdict: func(src, dst, tag int, seq uint64) FaultVerdict {
		switch seq % 3 {
		case 0:
			return FaultVerdict{Injected: true, Recovered: true, ExtraDelay: 1e-5}
		case 1:
			return FaultVerdict{Injected: true, ExtraDelay: 5e-6}
		}
		return FaultVerdict{}
	}}
	run := func(o Options) ([]float64, float64) {
		var got []float64
		vt, err := RunOpts(2, o, func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < 9; i++ {
					c.SendFloat64s(1, 4, []float64{float64(i), float64(i) * 0.5})
				}
				return nil
			}
			for i := 0; i < 9; i++ {
				x := c.RecvFloat64s(0, 4)
				got = append(got, x...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, vt
	}
	clean, cleanVT := run(Options{Timed: true, TM: BlueGeneP()})
	chaos, chaosVT := run(Options{Timed: true, TM: BlueGeneP(), Fault: pol})
	if len(clean) != len(chaos) {
		t.Fatalf("message count differs: %d vs %d", len(clean), len(chaos))
	}
	for i := range clean {
		if clean[i] != chaos[i] {
			t.Fatalf("payload %d differs: %g vs %g", i, clean[i], chaos[i])
		}
	}
	if chaosVT <= cleanVT {
		t.Fatalf("injected latency not modeled: clean %g, chaos %g", cleanVT, chaosVT)
	}
}

func TestLostMessageSurfacesAsTimeout(t *testing.T) {
	pol := planStub{verdict: func(src, dst, tag int, seq uint64) FaultVerdict {
		if tag == 9 {
			return FaultVerdict{Injected: true, Lost: true}
		}
		return FaultVerdict{}
	}}
	_, err := RunOpts(2, Options{Fault: pol}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 9, []byte("doomed"))
			return nil
		}
		_, _, _, err := c.RecvDeadline(0, 9, 50*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout for lost message, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLeakCorruptionCaughtByCheckedDecode(t *testing.T) {
	pol := planStub{verdict: func(src, dst, tag int, seq uint64) FaultVerdict {
		return FaultVerdict{Injected: true, CorruptTruncate: true}
	}}
	_, err := RunOpts(2, Options{Fault: pol}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 2, []float64{1, 2, 3})
			return nil
		}
		_, err := c.RecvFloat64sDeadline(0, 2, time.Second)
		if err == nil || errors.Is(err, ErrTimeout) || errors.Is(err, ErrRankDead) {
			return fmt.Errorf("want decode error for torn payload, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The collectives that decode their own traffic turn a torn block into
// a comm failure a recovery loop can catch, on every rank, and decode
// clean traffic like their unchecked counterparts.
func TestTornCollectiveIsCommFailure(t *testing.T) {
	torn := planStub{verdict: func(src, dst, tag int, seq uint64) FaultVerdict {
		return FaultVerdict{Injected: true, CorruptTruncate: true}
	}}
	caught := func(op func()) (err error) {
		defer func() {
			if p := recover(); p != nil {
				cerr, ok := AsCommFailure(p)
				if !ok {
					panic(p)
				}
				err = cerr
			}
		}()
		op()
		return nil
	}
	_, err := RunOpts(3, Options{Fault: torn}, func(c *Comm) error {
		if err := caught(func() { c.Split(0, c.Rank()) }); !errors.Is(err, ErrTornPayload) {
			return fmt.Errorf("Split over torn blocks: %v", err)
		}
		if err := caught(func() { c.AllgatherFloat64s([]float64{1, 2}) }); !errors.Is(err, ErrTornPayload) {
			return fmt.Errorf("AllgatherFloat64s over torn blocks: %v", err)
		}
		if err := caught(func() { c.AllgatherBatchedOverlap([]byte{1, 2}, nil) }); !errors.Is(err, ErrTornPayload) {
			return fmt.Errorf("Bruck allgather over torn frames: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Run(3, func(c *Comm) error {
		for r, x := range c.AllgatherFloat64s([]float64{float64(c.Rank()), 7}) {
			if len(x) != 2 || x[0] != float64(r) || x[1] != 7 {
				return fmt.Errorf("block %d decoded as %v", r, x)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultTelemetryCounters(t *testing.T) {
	pol := planStub{verdict: func(src, dst, tag int, seq uint64) FaultVerdict {
		switch {
		case tag == 5 && seq == 0:
			return FaultVerdict{Injected: true, Recovered: true, ExtraDelay: 1e-5}
		case tag == 5 && seq == 1:
			return FaultVerdict{Injected: true, Lost: true}
		}
		return FaultVerdict{}
	}}
	var merged telemetry.Snapshot
	var mu atomic.Int64
	regs := [2]*telemetry.Registry{telemetry.New(), telemetry.New()}
	_, err := RunOpts(2, Options{Fault: pol}, func(c *Comm) error {
		c.AttachTelemetry(regs[c.Rank()])
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("a")) // recovered
			c.Send(1, 5, []byte("b")) // lost
			c.Send(1, 5, []byte("c")) // clean
		} else {
			c.Recv(0, 5)
			c.Recv(0, 5) // "b" lost: receives "c"
		}
		mu.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	merged.Merge(regs[0].Snapshot())
	merged.Merge(regs[1].Snapshot())
	if got := merged.Counters[CounterFaultInjected]; got != 2 {
		t.Fatalf("fault.injected = %d, want 2", got)
	}
	if got := merged.Counters[CounterFaultRecovered]; got != 1 {
		t.Fatalf("fault.recovered = %d, want 1", got)
	}
	if got := merged.Counters[CounterFaultLost]; got != 1 {
		t.Fatalf("fault.lost = %d, want 1", got)
	}
}

func TestDeadlockDiagnosticsNameBlockedRanks(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		c.Recv(1-c.Rank(), 42+c.Rank())
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"rank 0", "rank 1", "tag=42", "tag=43", "src=1", "src=0"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic %q missing %q", msg, want)
		}
	}
}

// TestBlockedRecvAllocatesNothing: a receive that has to wait registers
// with the deadlock detector, and must not pay for a report nobody asks
// for — the communicator is described only when a deadlock fires. The
// communicator is an unlabeled split (its description is formatted, not
// stored) — the costlier case: the one grid loop labels the survivor,
// space and time communicators it builds. Rank 1 sends
// each empty message only once rank 0 is registered as waiting at the
// current epoch, so every measured Recv blocks exactly once.
func TestBlockedRecvAllocatesNothing(t *testing.T) {
	const runs = 50
	err := Run(2, func(world *Comm) error {
		c := world.Split(0, world.Rank())
		if c.Rank() == 1 {
			w := c.w
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds a warm-up call
				for blocked := false; !blocked; runtime.Gosched() {
					w.mu.Lock()
					wi, ok := w.waiting[0]
					blocked = ok && wi.epoch == w.epoch
					w.mu.Unlock()
				}
				c.Send(0, 3, nil)
			}
			return nil
		}
		if n := testing.AllocsPerRun(runs, func() { c.Recv(1, 3) }); n != 0 {
			return fmt.Errorf("a Recv that blocks once allocates %.0f times", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultDisabledZeroOverhead is the allocation guard of the
// acceptance criteria: with no fault policy attached, the resilience
// hooks must cost nothing on the hot paths.
func TestFaultDisabledZeroOverhead(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if n := testing.AllocsPerRun(100, func() {
			c.FaultPoint("block", 3)
		}); n != 0 {
			return fmt.Errorf("FaultPoint allocates %.1f/op with faults disabled", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSendRecvNoFaultPolicy(b *testing.B) {
	benchSendRecv(b, Options{})
}

func BenchmarkSendRecvWithFaultPolicy(b *testing.B) {
	benchSendRecv(b, Options{Fault: planStub{}})
}

func benchSendRecv(b *testing.B, o Options) {
	payload := make([]byte, 64)
	_, err := RunOpts(2, o, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, 1, payload)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 1)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
