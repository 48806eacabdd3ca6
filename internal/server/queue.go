package server

import (
	"errors"
	"sync"
)

// Admission sentinels. All are typed so clients and tests can
// distinguish backpressure (retry later) from policy (don't retry).
var (
	// ErrQueueFull rejects a submit when the bounded queue is at
	// capacity (and shedding is off): the queue refuses to grow rather
	// than buffer without bound. HTTP maps it to 429.
	ErrQueueFull = errors.New("server: queue full")
	// ErrQuota rejects a submit that would exceed the tenant's queued
	// quota. HTTP maps it to 429.
	ErrQuota = errors.New("server: tenant quota exceeded")
	// ErrDraining rejects a submit while the daemon is draining. HTTP
	// maps it to 503.
	ErrDraining = errors.New("server: draining")
	// ErrShed marks a queued job evicted by graceful degradation: the
	// queue was full and the daemon shed the oldest queued job to
	// admit the new one.
	ErrShed = errors.New("server: job shed under load")
)

// admitQueue is the daemon's bounded FIFO admission queue. One mutex
// owns the queue, the worker slots AND the per-tenant queued/running
// accounting, so admission (depth + quota), eligibility (a free worker
// + per-tenant running cap) and shedding are each a single atomic
// decision. A job leaves the queue only together with a worker slot:
// there is never a popped job waiting in the dispatcher's hand,
// uncounted against depth and charged to its tenant while not running,
// so depth bounds every job that does not hold a worker.
type admitQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	items  []*job
	depth  int
	slots  int // free worker slots: pop takes one, release returns it
	closed bool

	tenantQueued  map[string]int
	tenantRunning map[string]int
	maxQueued     int // per-tenant queued cap
	maxRunning    int // per-tenant running cap
}

func newAdmitQueue(depth, workers, maxQueued, maxRunning int) *admitQueue {
	q := &admitQueue{
		depth:         depth,
		slots:         workers,
		maxQueued:     maxQueued,
		maxRunning:    maxRunning,
		tenantQueued:  make(map[string]int),
		tenantRunning: make(map[string]int),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits j. On a full queue it either rejects with ErrQueueFull
// or — when shedOldest is set — evicts and returns the oldest queued
// job (the caller journals and finalizes the shed job). A tenant over
// its queued quota is rejected with ErrQuota regardless of shedding:
// quota pressure is the tenant's own doing, not global load.
func (q *admitQueue) push(j *job, shedOldest bool) (shed *job, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrDraining
	}
	t := j.spec.Tenant
	if q.tenantQueued[t] >= q.maxQueued {
		return nil, ErrQuota
	}
	if len(q.items) >= q.depth {
		if !shedOldest {
			return nil, ErrQueueFull
		}
		shed = q.items[0]
		q.items = q.items[1:]
		q.tenantQueued[shed.spec.Tenant]--
	}
	q.items = append(q.items, j)
	q.tenantQueued[t]++
	q.cond.Broadcast()
	return shed, nil
}

// requeue re-admits a replayed job on restart, bypassing depth and
// quota checks: jobs already journaled as submitted are owed
// execution regardless of current pressure.
func (q *admitQueue) requeue(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = append(q.items, j)
	q.tenantQueued[j.spec.Tenant]++
	q.cond.Broadcast()
}

// pop blocks until a worker slot is free and a job whose tenant has
// running headroom is queued, removes the first such job, takes the
// slot, charges the tenant's running count, and returns the job. It
// returns nil once the queue is closed — remaining items stay queued
// for the drain path to collect.
func (q *admitQueue) pop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil
		}
		if q.slots > 0 {
			for i, j := range q.items {
				t := j.spec.Tenant
				if q.tenantRunning[t] < q.maxRunning {
					q.items = append(q.items[:i], q.items[i+1:]...)
					q.tenantQueued[t]--
					q.tenantRunning[t]++
					q.slots--
					return j
				}
			}
		}
		q.cond.Wait()
	}
}

// release returns a popped job's worker slot and its tenant's running
// slot, and wakes pop.
func (q *admitQueue) release(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tenantRunning[tenant]--
	q.slots++
	q.cond.Broadcast()
}

// remove takes a specific job out of the queue (client cancel while
// queued). It reports whether the job was found.
func (q *admitQueue) remove(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it == j {
			q.items = append(q.items[:i], q.items[i+1:]...)
			q.tenantQueued[j.spec.Tenant]--
			return true
		}
	}
	return false
}

// drainQueued empties the queue and returns the removed jobs, in
// order.
func (q *admitQueue) drainQueued() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.items
	q.items = nil
	for _, j := range out {
		q.tenantQueued[j.spec.Tenant]--
	}
	return out
}

// lenQueued reports the current queue depth.
func (q *admitQueue) lenQueued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops admission and unblocks every pop.
func (q *admitQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
