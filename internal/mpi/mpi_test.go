package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunBasic(t *testing.T) {
	var count atomic.Int64
	err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("size %d", c.Size())
		}
		count.Add(int64(c.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 28 {
		t.Fatalf("rank sum %d, want 28", count.Load())
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("expected error for size 0")
	}
}

func TestSendRecvOrdering(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.SendFloat64s(1, 5, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < 10; i++ {
			v := c.RecvFloat64s(0, 5)
			if v[0] != float64(i) {
				return fmt.Errorf("got %v, want %d", v[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcards(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Send(0, 100+c.Rank(), []byte{byte(c.Rank())})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, src, tag := c.Recv(AnySource, AnyTag)
			if int(data[0]) != src || tag != 100+src {
				return fmt.Errorf("data %v src %d tag %d", data, src, tag)
			}
			seen[src] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing senders: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvSelectiveByTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first"))
			c.Send(1, 2, []byte("second"))
			return nil
		}
		// Receive tag 2 first even though tag 1 arrived earlier.
		d2, _, _ := c.Recv(0, 2)
		d1, _, _ := c.Recv(0, 1)
		if string(d2) != "second" || string(d1) != "first" {
			return fmt.Errorf("got %q %q", d2, d1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		c.Recv(1-c.Rank(), 0) // both wait forever
		return nil
	})
	if err == nil || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestDeadRankTriggersDeadlock(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return errors.New("rank 0 bails out")
		}
		c.Recv(0, 0)
		return nil
	})
	if err == nil || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock after rank death, got %v", err)
	}
}

func TestPanicInRankIsReported(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		var phase atomic.Int64
		err := Run(p, func(c *Comm) error {
			phase.Add(1)
			c.Barrier()
			if got := phase.Load(); got != int64(p) {
				return fmt.Errorf("after barrier phase=%d, want %d", got, p)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		for root := 0; root < p; root++ {
			err := Run(p, func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = []byte{42, 43}
				}
				got := c.Bcast(root, data)
				if len(got) != 2 || got[0] != 42 || got[1] != 43 {
					return fmt.Errorf("rank %d got %v", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6} {
		err := Run(p, func(c *Comm) error {
			out := c.Allgather([]byte(fmt.Sprintf("r%d", c.Rank())))
			for r := 0; r < p; r++ {
				if string(out[r]) != fmt.Sprintf("r%d", r) {
					return fmt.Errorf("out[%d] = %q", r, out[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllgatherBatchedMatchesRing(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 7, 8} {
		err := Run(p, func(c *Comm) error {
			// Varied per-rank payload sizes, including empty blocks.
			data := make([]byte, c.Rank()*3%7)
			for i := range data {
				data[i] = byte(c.Rank()*31 + i)
			}
			ring := c.Allgather(data)
			bat := c.AllgatherBatchedOverlap(data, nil)
			for r := 0; r < p; r++ {
				if !bytes.Equal(ring[r], bat[r]) {
					return fmt.Errorf("rank %d block %d: ring %v != batched %v", c.Rank(), r, ring[r], bat[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllgatherBatchedOverlapHook(t *testing.T) {
	for _, p := range []int{1, 2, 6} {
		err := Run(p, func(c *Comm) error {
			calls := 0
			out := c.AllgatherBatchedOverlap([]byte{byte(c.Rank())}, func() { calls++ })
			if calls != 1 {
				return fmt.Errorf("overlap hook ran %d times, want 1", calls)
			}
			for r := 0; r < p; r++ {
				if len(out[r]) != 1 || out[r][0] != byte(r) {
					return fmt.Errorf("out[%d] = %v", r, out[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestAllgatherBatchedModeledLatency checks the point of the Bruck
// variant: on the virtual clock the chained rounds cost ⌈log2 P⌉
// latencies instead of the ring's P−1, so at larger P with small
// payloads the batched collective must finish strictly earlier.
func TestAllgatherBatchedModeledLatency(t *testing.T) {
	const p = 32
	ringVT, err := RunTimed(p, BlueGeneP(), func(c *Comm) error {
		c.Allgather([]byte{byte(c.Rank())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	batVT, err := RunTimed(p, BlueGeneP(), func(c *Comm) error {
		c.AllgatherBatchedOverlap([]byte{byte(c.Rank())}, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batVT >= ringVT {
		t.Fatalf("batched allgather modeled time %v not below ring %v at p=%d", batVT, ringVT, p)
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		err := Run(p, func(c *Comm) error {
			data := make([][]byte, p)
			for i := range data {
				data[i] = []byte{byte(c.Rank()), byte(i)}
			}
			out := c.Alltoall(data)
			for r := 0; r < p; r++ {
				if out[r][0] != byte(r) || out[r][1] != byte(c.Rank()) {
					return fmt.Errorf("out[%d] = %v", r, out[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceFloat64(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		err := Run(p, func(c *Comm) error {
			x := []float64{float64(c.Rank()), -float64(c.Rank())}
			sum := c.AllreduceFloat64(x, OpSum)
			want := float64(p*(p-1)) / 2
			if sum[0] != want || sum[1] != -want {
				return fmt.Errorf("sum = %v, want ±%v", sum, want)
			}
			mx := c.AllreduceFloat64(x, OpMax)
			if mx[0] != float64(p-1) || mx[1] != 0 {
				return fmt.Errorf("max = %v", mx)
			}
			mn := c.AllreduceFloat64(x, OpMin)
			if mn[0] != 0 || mn[1] != -float64(p-1) {
				return fmt.Errorf("min = %v", mn)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceInt64(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		got := c.AllreduceInt64([]int64{int64(c.Rank() + 1)}, OpSum)
		if got[0] != 15 {
			return fmt.Errorf("sum = %d", got[0])
		}
		got = c.AllreduceInt64([]int64{int64(c.Rank())}, OpMax)
		if got[0] != 4 {
			return fmt.Errorf("max = %d", got[0])
		}
		got = c.AllreduceInt64([]int64{int64(c.Rank())}, OpMin)
		if got[0] != 0 {
			return fmt.Errorf("min = %d", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitGrid(t *testing.T) {
	// Build the Fig. 2 PT×PS grid: 6 ranks as 3 time slices × 2 spatial
	// ranks. Each rank joins a spatial comm (color = slice) and a
	// temporal comm (color = spatial index).
	const pt, ps = 3, 2
	err := Run(pt*ps, func(c *Comm) error {
		slice := c.Rank() / ps
		spatial := c.Rank() % ps
		spaceComm := c.Split(slice, spatial)
		timeComm := c.Split(spatial, slice)
		if spaceComm.Size() != ps || spaceComm.Rank() != spatial {
			return fmt.Errorf("space comm rank/size %d/%d", spaceComm.Rank(), spaceComm.Size())
		}
		if timeComm.Size() != pt || timeComm.Rank() != slice {
			return fmt.Errorf("time comm rank/size %d/%d", timeComm.Rank(), timeComm.Size())
		}
		// Collectives on sub-communicators must be isolated.
		s := spaceComm.AllreduceFloat64([]float64{1}, OpSum)
		if s[0] != ps {
			return fmt.Errorf("space allreduce %v", s)
		}
		tsum := timeComm.AllreduceFloat64([]float64{float64(slice)}, OpSum)
		if tsum[0] != 0+1+2 {
			return fmt.Errorf("time allreduce %v", tsum)
		}
		// Point-to-point within the time communicator.
		if slice > 0 {
			timeComm.SendFloat64s(slice-1, 9, []float64{float64(c.Rank())})
		}
		if slice < pt-1 {
			v := timeComm.RecvFloat64s(slice+1, 9)
			if v[0] != float64(c.Rank()+ps) {
				return fmt.Errorf("time p2p got %v", v[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitIsolatesP2PAcrossComms(t *testing.T) {
	// The same (worldSrc, tag) pair on two different communicators must
	// not cross-match.
	err := Run(2, func(c *Comm) error {
		sub := c.Split(0, c.Rank()) // both ranks, same order
		if c.Rank() == 0 {
			sub.Send(1, 7, []byte("sub"))
			c.Send(1, 7, []byte("world"))
			return nil
		}
		dw, _, _ := c.Recv(0, 7)
		ds, _, _ := sub.Recv(0, 7)
		if string(dw) != "world" || string(ds) != "sub" {
			return fmt.Errorf("cross-matched: world=%q sub=%q", dw, ds)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	vt, err := RunTimed(2, TimeModel{Latency: 1e-3, BytePeriod: 1e-6}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Advance(0.5)
			c.Send(1, 0, make([]byte, 1000)) // 1000 B ⇒ 1 ms transfer
			return nil
		}
		c.Recv(0, 0)
		// receiver clock = send(0.5) + latency(0.001) + bytes(0.001)
		now := c.Now()
		if math.Abs(now-0.502) > 1e-12 {
			return fmt.Errorf("receiver clock %v, want 0.502", now)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vt-0.502) > 1e-12 {
		t.Fatalf("max virtual time %v, want 0.502", vt)
	}
}

func TestVirtualClockReceiverNotRolledBack(t *testing.T) {
	_, err := RunTimed(2, TimeModel{Latency: 1e-3}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, nil) // sent at t=0
			return nil
		}
		c.Advance(10)
		c.Recv(0, 0)
		if now := c.Now(); now != 10 {
			return fmt.Errorf("receiver clock rolled back to %v", now)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockBarrierSynchronizes(t *testing.T) {
	_, err := RunTimed(4, TimeModel{Latency: 1e-6}, func(c *Comm) error {
		c.Advance(float64(c.Rank())) // rank 3 is slowest: t=3
		c.Barrier()
		if now := c.Now(); now < 3 {
			return fmt.Errorf("rank %d clock %v after barrier, want >= 3", c.Rank(), now)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUntimedClockIsZero(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		c.Advance(5)
		if c.Now() != 0 {
			return errors.New("untimed clock must stay 0")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(a, b, cc float64) bool {
		x := []float64{a, b, cc}
		y := BytesToFloat64s(Float64sToBytes(x))
		for i := range x {
			if x[i] != y[i] && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a, b int64) bool {
		x := []int64{a, b}
		y := BytesToInt64s(Int64sToBytes(x))
		return x[0] == y[0] && x[1] == y[1]
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallLendsReusedBuffers: Alltoall lends its blocks instead of
// copying them, so a sender that reuses its buffers round after round
// may rewrite them only after a later all-rank collective. Two ranks
// alternate Alltoall on the same buffers with an allreduce between
// rounds: every received block must hold what the sender wrote for
// that round, and the race detector must see the receiver's reads
// ordered before the sender's next writes.
func TestAlltoallLendsReusedBuffers(t *testing.T) {
	const p, rounds, size = 2, 50, 256
	err := Run(p, func(c *Comm) error {
		data := make([][]byte, p)
		for i := range data {
			data[i] = make([]byte, size)
		}
		for round := 0; round < rounds; round++ {
			for dst, blk := range data {
				for i := range blk {
					blk[i] = byte(round + 3*c.Rank() + 5*dst + i)
				}
			}
			out := c.Alltoall(data)
			if &out[c.Rank()][0] != &data[c.Rank()][0] {
				return errors.New("own block was copied, not returned as is")
			}
			for src, blk := range out {
				if len(blk) != size {
					return fmt.Errorf("round %d: block from %d has %d bytes", round, src, len(blk))
				}
				for i, b := range blk {
					if want := byte(round + 3*src + 5*c.Rank() + i); b != want {
						return fmt.Errorf("round %d: byte %d from rank %d is %d, want %d", round, i, src, b, want)
					}
				}
			}
			c.AllreduceInt64([]int64{int64(round)}, OpMax)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodecPanicsOnBadLength(t *testing.T) {
	for _, fn := range []func(){
		func() { BytesToFloat64s(make([]byte, 7)) },
		func() { BytesToInt64s(make([]byte, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSendInvalidArgsPanic(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		for _, fn := range []func(){
			func() { c.Send(5, 0, nil) },
			func() { c.Send(0, -3, nil) },
			func() { c.Recv(7, 0) },
			func() { c.Recv(0, -5) },
			func() { c.Alltoall(make([][]byte, 3)) },
		} {
			ok := func() (ok bool) {
				defer func() { ok = recover() != nil }()
				fn()
				return false
			}()
			if !ok {
				return errors.New("expected panic")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksStress(t *testing.T) {
	// 64 ranks exchanging in a ring plus a reduction.
	const p = 64
	err := Run(p, func(c *Comm) error {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		c.SendFloat64s(right, 3, []float64{float64(c.Rank())})
		v := c.RecvFloat64s(left, 3)
		if v[0] != float64(left) {
			return fmt.Errorf("ring got %v", v)
		}
		sum := c.AllreduceFloat64([]float64{1}, OpSum)
		if sum[0] != p {
			return fmt.Errorf("sum %v", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPingPong(b *testing.B) {
	_ = Run(2, func(c *Comm) error {
		buf := make([]byte, 1024)
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.Send(0, 1, buf)
			}
		}
		return nil
	})
}

func TestConcurrentSendersSameRank(t *testing.T) {
	// Multiple goroutines of one rank may Send concurrently.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c.SendFloat64s(1, 100+i, []float64{float64(i)})
				}(i)
			}
			wg.Wait()
			return nil
		}
		sum := 0.0
		for i := 0; i < 8; i++ {
			v := c.RecvFloat64s(0, 100+i)
			sum += v[0]
		}
		if sum != 28 {
			return fmt.Errorf("sum %v", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockBarrierScalesLogarithmically(t *testing.T) {
	// The dissemination barrier costs ⌈log2 P⌉ rounds of latency; the
	// modeled time must grow roughly logarithmically, not linearly.
	barrierTime := func(p int) float64 {
		vt, err := RunTimed(p, TimeModel{Latency: 1e-3}, func(c *Comm) error {
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return vt
	}
	t4, t32 := barrierTime(4), barrierTime(32)
	if t32 <= t4 {
		t.Fatalf("barrier time not increasing: %g vs %g", t4, t32)
	}
	// log2(32)/log2(4) = 2.5; allow slack but rule out linear (8x).
	if t32 > 4*t4 {
		t.Fatalf("barrier scaling looks linear: %g vs %g", t4, t32)
	}
}

func TestVirtualClockAllgatherBandwidthTerm(t *testing.T) {
	// The ring allgather moves (P−1)·blockBytes per rank; doubling the
	// payload should roughly double the modeled time when bandwidth
	// dominates.
	gatherTime := func(bytes int) float64 {
		vt, err := RunTimed(4, TimeModel{Latency: 1e-9, BytePeriod: 1e-6}, func(c *Comm) error {
			c.Allgather(make([]byte, bytes))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return vt
	}
	t1, t2 := gatherTime(1000), gatherTime(2000)
	ratio := t2 / t1
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("allgather bandwidth scaling ratio %g, want ≈ 2", ratio)
	}
}

func TestSplitDeterministicAcrossRuns(t *testing.T) {
	// Communicator construction must be deterministic: two identical
	// runs produce identical sub-communicator ranks.
	shape := func() [6]int {
		var out [6]int
		err := Run(6, func(c *Comm) error {
			sub := c.Split(c.Rank()%2, -c.Rank()) // reversed key order
			out[c.Rank()] = sub.Rank()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := shape(), shape()
	if a != b {
		t.Fatalf("nondeterministic split: %v vs %v", a, b)
	}
	// Reversed keys must reverse the sub-ranks: world rank 4 (key −4)
	// comes before world rank 2 (key −2) in color 0 = {0,2,4}.
	if !(a[4] < a[2] && a[2] < a[0]) {
		t.Fatalf("key ordering not respected: %v", a)
	}
}
