package mpi

// Tests of the 2D-grid resilience primitives (revoke.go): communicator
// revocation waking blocked peers, opt-in fail-fast receives, the
// agreed dead set, ShrinkTo on a PT×PS grid (including double failure
// — two ranks dead in one block), and the communicator-naming deadlock
// diagnostics.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// aliveCount and revoked read the world's failure state under its
// lock; the tests poll them to sequence a fault before the receive
// under test.
func aliveCount(c *Comm) int {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	n := 0
	for _, wr := range c.ranks {
		if !c.w.dead[wr] {
			n++
		}
	}
	return n
}

func revoked(c *Comm) bool {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return c.w.revoked[c.id]
}

// recoverCommFailure runs fn and converts a comm-failure panic into
// its error; any other panic is re-raised.
func recoverCommFailure(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			cerr, ok := AsCommFailure(p)
			if !ok {
				panic(p)
			}
			err = cerr
		}
	}()
	fn()
	return nil
}

func TestRevokeWakesBlockedRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			// Give rank 0 time to block, then revoke: the blocked
			// receive must fail with ErrRevoked instead of waiting for
			// a message that will never come.
			time.Sleep(20 * time.Millisecond)
			c.Revoke()
			return nil
		}
		err := recoverCommFailure(func() { c.Recv(1, 7) })
		if !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("want ErrRevoked from blocked Recv, got %v", err)
		}
		if !revoked(c) {
			return errors.New("communicator not marked revoked after revocation")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRevokedCommStillDeliversQueuedMessages(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(0, 3, []byte("queued before revoke"))
			c.Revoke()
			return nil
		}
		for !revoked(c) {
			time.Sleep(time.Millisecond)
		}
		// The queued message survives revocation; only a receive that
		// would block fails.
		data, _, _ := c.Recv(1, 3)
		if string(data) != "queued before revoke" {
			return fmt.Errorf("got %q", data)
		}
		err := recoverCommFailure(func() { c.Recv(1, 3) })
		if !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("drained revoked comm: want ErrRevoked, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailFastRecvOnDeadMember(t *testing.T) {
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return rank == 2 && phase == "die" && epoch == 0
	}}
	_, err := RunOpts(3, Options{Fault: pol}, func(c *Comm) error {
		if c.Rank() == 2 {
			c.FaultPoint("die", 0)
			return errors.New("rank 2 survived its crash point")
		}
		for aliveCount(c) == 3 {
			time.Sleep(time.Millisecond)
		}
		// Without fail-fast a receive from a live peer would block (the
		// dead rank is not the source); with it, any dead member fails
		// the receive so the rank can join recovery.
		c.FailFast(true)
		err := recoverCommFailure(func() { c.Recv((c.Rank()+1)%2, 9) })
		if !errors.Is(err, ErrRankDead) {
			return fmt.Errorf("want ErrRankDead from fail-fast Recv, got %v", err)
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrInjectedCrash) {
		t.Fatal(err)
	}
}

func TestRecvDeadlineOnRevokedComm(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		c.Barrier()
		if c.Rank() == 1 {
			c.Revoke()
			return nil
		}
		for !revoked(c) {
			time.Sleep(time.Millisecond)
		}
		_, _, _, err := c.RecvDeadline(1, 4, 30*time.Second)
		if !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("want ErrRevoked from RecvDeadline, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGridShrinkToDoubleFailure is the ISSUE 8 mpi hardening case: a
// PT=4 × PS=2 grid loses two ranks in one block (different columns),
// the survivors agree on the dead set and all shrink the world onto
// the same survivor list, and the shrunken communicator still runs
// collectives and splits.
func TestGridShrinkToDoubleFailure(t *testing.T) {
	const pt, ps = 4, 2
	victims := map[int]bool{2: true, 5: true}
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return victims[rank] && phase == "block" && epoch == 0
	}}
	_, err := RunOpts(pt*ps, Options{Fault: pol}, func(world *Comm) error {
		// Build the 2D grid exactly like core.RunSpaceTime.
		slice := world.Rank() / ps
		space := world.Split(slice, world.Rank()%ps)
		space.SetLabel(fmt.Sprintf("space[slice=%d]", slice))
		world.FaultPoint("block", 0)

		// Survivors: wait until both deaths are visible, then agree.
		for aliveCount(world) != pt*ps-len(victims) {
			time.Sleep(time.Millisecond)
		}
		dead := world.AgreeDeadRanks()
		if len(dead) != 2 || dead[0] != 2 || dead[1] != 5 {
			return fmt.Errorf("agreed dead set %v, want [2 5]", dead)
		}
		surv := world.ShrinkTo(dead)
		if surv.Size() != pt*ps-2 {
			return fmt.Errorf("survivor comm size %d", surv.Size())
		}
		// Order is preserved: survivor rank k maps to the k-th live
		// world rank, so the grid structure is recoverable from the
		// agreed dead set alone.
		wantWorld := []int{0, 1, 3, 4, 6, 7}
		if surv.ranks[surv.Rank()] != wantWorld[surv.Rank()] {
			return fmt.Errorf("survivor rank %d is world %d, want %d",
				surv.Rank(), surv.ranks[surv.Rank()], wantWorld[surv.Rank()])
		}
		// The shrunken communicator is fully functional: collectives...
		sum := surv.AllreduceInt64([]int64{int64(world.Rank())}, OpSum)[0]
		if sum != 0+1+3+4+6+7 {
			return fmt.Errorf("allreduce over survivors = %d", sum)
		}
		// ...and splits (rebuilding a smaller grid).
		sub := surv.Split(surv.Rank()%2, surv.Rank())
		if sub.Size() != 3 {
			return fmt.Errorf("post-shrink split size %d", sub.Size())
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrInjectedCrash) {
		t.Fatal(err)
	}
}

// TestAgreeDeadRanksConsistentUnderRace: observers that contribute
// before a death is globally visible still converge — the min-fold
// unions the observations, so every caller gets the same list.
func TestAgreeDeadRanksConsistentUnderRace(t *testing.T) {
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return rank == 3 && phase == "die" && epoch == 0
	}}
	_, err := RunOpts(4, Options{Fault: pol}, func(c *Comm) error {
		c.FaultPoint("die", 0)
		// No waiting: some survivors may reach the agreement before
		// observing the death; the dead rank never contributes, so the
		// round for world rank 3 cannot complete until it is dead and
		// every survivor returns [3].
		dead := c.AgreeDeadRanks()
		if len(dead) != 1 || dead[0] != 3 {
			return fmt.Errorf("agreed dead set %v, want [3]", dead)
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrInjectedCrash) {
		t.Fatal(err)
	}
}

// TestDeathWhileAllSurvivorsBlockedIsNotDeadlock: every survivor is
// parked in an agreement when a rank dies. The dying rank's exit path
// runs the deadlock check while it still holds the world lock, so the
// survivors cannot have woken yet — their registrations must read as
// stale (wakeup pending), not as proof of a hang. A regression here
// fails the whole world with a false ErrDeadlock instead of letting
// the agreement complete over the survivors.
func TestDeathWhileAllSurvivorsBlockedIsNotDeadlock(t *testing.T) {
	pol := planStub{crash: func(rank int, phase string, epoch int) bool {
		return rank == 2 && phase == "die" && epoch == 0
	}}
	_, err := RunOpts(3, Options{Fault: pol}, func(c *Comm) error {
		if c.Rank() == 2 {
			// Let both survivors register in the waiting table before
			// dying: the deadlock check must see them as pending wakeups.
			time.Sleep(20 * time.Millisecond)
			c.FaultPoint("die", 0)
			return errors.New("rank 2 survived its crash point")
		}
		got := c.Agree(int64(c.Rank() + 10))
		if got != 10 {
			return fmt.Errorf("agree over survivors = %d, want 10", got)
		}
		return nil
	})
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("false deadlock while survivors awaited a dying rank: %v", err)
	}
	if err != nil && !errors.Is(err, ErrInjectedCrash) {
		t.Fatal(err)
	}
}

// TestDeadlockDiagnosticsNameSpatialComm: a deadlock on a labeled
// (spatial) communicator reports the label, so a hang on the space
// comm is distinguishable from one on the time comm.
func TestDeadlockDiagnosticsNameSpatialComm(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		space := c.Split(0, c.Rank())
		space.SetLabel(fmt.Sprintf("space[slice=%d]", 0))
		// Both ranks receive, nobody sends: deadlock.
		space.Recv((space.Rank()+1)%2, 5)
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if !strings.Contains(err.Error(), "space[slice=0]") {
		t.Fatalf("deadlock diagnostic does not name the spatial communicator: %v", err)
	}
}
