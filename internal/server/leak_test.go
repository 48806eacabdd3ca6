package server

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// checkNoGoroutineLeak runs fn and asserts the goroutine count
// returns to (near) its baseline within a grace period — the daemon
// must not strand workers, dispatchers, rank goroutines or timers.
func checkNoGoroutineLeak(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(10 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after (leak)", before, after)
}

func TestDaemonNoGoroutineLeak(t *testing.T) {
	checkNoGoroutineLeak(t, func() {
		d := newTestDaemon(t, t.TempDir(), func(c *Config) { c.Workers = 2 })
		ids := submitAll(t, d, []*JobSpec{
			testSpec("alice", 61), testSpec("bob", 62), testSpec("alice", 63),
		})
		waitAllDone(t, d, ids)
		d.Close()
	})
}

func TestDrainNoGoroutineLeak(t *testing.T) {
	checkNoGoroutineLeak(t, func() {
		d := newTestDaemon(t, t.TempDir(), func(c *Config) { c.Workers = 1 })
		submitAll(t, d, []*JobSpec{
			drainSpec("alice", 64), drainSpec("alice", 65), drainSpec("bob", 66),
		})
		waitCond(t, 60*time.Second, "a job running", func() bool {
			for _, st := range d.Jobs() {
				if st.State == StateRunning {
					return true
				}
			}
			return false
		})
		if err := d.Drain(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFullQueueRejectsRatherThanGrows holds the single worker with a
// long job, fills the one-deep queue, and asserts the next submit is
// rejected typed — the queue never grows past its bound.
func TestFullQueueRejectsRatherThanGrows(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	defer d.Close()
	long, err := d.Submit(slowSpec("alice", 67))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, 30*time.Second, "long job running", func() bool {
		st, _ := d.Job(long)
		return st.State == StateRunning
	})
	if _, err := d.Submit(testSpec("bob", 68)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(testSpec("carol", 69)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-full submit: %v, want ErrQueueFull", err)
	}
	if depth := d.q.lenQueued(); depth > 1 {
		t.Fatalf("queue depth %d exceeds bound 1", depth)
	}
	if got := d.Metrics().Counters["server.rejected.queue_full"]; got != 1 {
		t.Fatalf("queue_full rejections %d, want 1", got)
	}
}

// TestAdmitQueueBoundsJobsWithoutWorker pins the admission invariant
// directly on the queue: a job leaves it only together with a worker
// slot, so with the one worker taken a concurrent pop — the dispatcher
// — cannot pull the queued job into its hand, and depth bounds every
// job that is not running (queued + in-hand ≤ QueueDepth).
func TestAdmitQueueBoundsJobsWithoutWorker(t *testing.T) {
	q := newAdmitQueue(1, 1, 8, 8)
	defer q.close() // frees the popper should an assertion fail first
	a, b, c := newJob(0, testSpec("alice", 1)), newJob(1, testSpec("bob", 2)), newJob(2, testSpec("carol", 3))
	if _, err := q.push(a, false); err != nil {
		t.Fatal(err)
	}
	if got := q.pop(); got != a {
		t.Fatalf("pop returned %v, want job 0", got)
	}
	if _, err := q.push(b, false); err != nil {
		t.Fatal(err)
	}
	popped := make(chan *job, 1) // one send
	go func() { popped <- q.pop() }()
	// Whether or not the popper has reached its wait yet, it cannot
	// take b: the only worker slot belongs to a.
	if _, err := q.push(c, false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-full push: %v, want ErrQueueFull", err)
	}
	if shed, err := q.push(c, true); err != nil || shed != b {
		t.Fatalf("shedding push: shed %v, err %v; want job 1 evicted", shed, err)
	}
	if n := q.lenQueued(); n != 1 {
		t.Fatalf("queue depth %d, want 1", n)
	}
	q.release(a.spec.Tenant)
	if got := <-popped; got != c {
		t.Fatalf("pop after release returned %v, want job 2", got)
	}
}

// TestTenantQuotaRejectsTyped caps one tenant's queued jobs and
// asserts the quota rejection is per-tenant.
func TestTenantQuotaRejectsTyped(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 8
		c.TenantMaxQueued = 1
	})
	defer d.Close()
	long, err := d.Submit(slowSpec("alice", 70))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, 30*time.Second, "long job running", func() bool {
		st, _ := d.Job(long)
		return st.State == StateRunning
	})
	if _, err := d.Submit(testSpec("alice", 71)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(testSpec("alice", 72)); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota submit: %v, want ErrQuota", err)
	}
	// Another tenant is untouched by alice's quota.
	if _, err := d.Submit(testSpec("bob", 73)); err != nil {
		t.Fatalf("bob rejected by alice's quota: %v", err)
	}
}

// TestShedOldestUnderLoad switches the full-queue policy to graceful
// degradation: the oldest queued job is evicted, typed, to admit the
// newest.
func TestShedOldestUnderLoad(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.ShedOldest = true
	})
	defer d.Close()
	long, err := d.Submit(slowSpec("alice", 74))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, 30*time.Second, "long job running", func() bool {
		st, _ := d.Job(long)
		return st.State == StateRunning
	})
	victim, err := d.Submit(testSpec("bob", 75))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := d.Submit(testSpec("carol", 76))
	if err != nil {
		t.Fatalf("shedding submit rejected: %v", err)
	}
	st, _ := d.Job(victim)
	if st.State != StateShed {
		t.Fatalf("victim state %q, want shed", st.State)
	}
	if kept == victim {
		t.Fatal("shed returned the new job")
	}
	if got := d.Metrics().Counters["server.jobs.shed"]; got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}
}
