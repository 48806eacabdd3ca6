package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		if !p.Submit(func() { n.Add(1); wg.Done() }) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	wg.Wait()
	p.Close()
	if got := n.Load(); got != 64 {
		t.Fatalf("ran %d tasks, want 64", got)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(func() {
				c := cur.Add(1)
				for {
					m := peak.Load()
					if c <= m || peak.CompareAndSwap(m, c) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	// Drain: all submitted tasks have been accepted; Close waits for
	// their execution.
	p.Close()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestPoolSubmitAfterCloseRejected(t *testing.T) {
	p := NewPool(2)
	p.Close()
	if p.Submit(func() { t.Error("task ran after close") }) {
		t.Fatal("submit accepted after close")
	}
}

func TestPoolCloseWaitsForInflight(t *testing.T) {
	p := NewPool(1)
	var done atomic.Bool
	started := make(chan struct{})
	p.Submit(func() {
		close(started)
		time.Sleep(20 * time.Millisecond)
		done.Store(true)
	})
	<-started
	p.Close()
	if !done.Load() {
		t.Fatal("Close returned before in-flight task finished")
	}
}
