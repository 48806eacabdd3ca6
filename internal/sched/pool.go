package sched

import (
	"sync"
	"sync/atomic"
)

// Pool generalizes the per-run work-stealing scheduler to a fleet of
// jobs: a fixed set of workers multiplexes many independent solver
// runs (each of which may spin up its own PT×PS rank goroutines
// internally), so the daemon's concurrency is bounded by construction
// no matter how many jobs are admitted. Tasks are unbuffered — a
// Submit blocks until a worker is free or the pool closes — which
// pushes backpressure up to the admission queue instead of hiding an
// unbounded buffer here.
type Pool struct {
	tasks     chan func()
	quit      chan struct{}
	wg        sync.WaitGroup
	running   atomic.Int64
	closeOnce sync.Once
}

// NewPool starts a pool of the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		tasks: make(chan func()),
		quit:  make(chan struct{}),
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case fn := <-p.tasks:
			p.running.Add(1)
			fn()
			p.running.Add(-1)
		}
	}
}

// Submit hands fn to a worker, blocking until one accepts it. It
// reports false once the pool is closing (fn is then not run). A
// Submit racing Close may still be accepted; Close waits for it.
func (p *Pool) Submit(fn func()) bool {
	select {
	case p.tasks <- fn:
		return true
	case <-p.quit:
		return false
	}
}

// Close stops accepting work and waits for every in-flight task to
// finish. Safe to call more than once.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// Running reports the number of tasks executing right now.
func (p *Pool) Running() int { return int(p.running.Load()) }
