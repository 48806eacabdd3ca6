package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fault"
)

func chaosPlan(t *testing.T, spec string) *fault.ServerPlan {
	t.Helper()
	p, err := fault.ParseServer(spec, 1009)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChaosWorkerCrashRetriesBitwise: every job's first attempt
// crashes at a hashed block ≥ 1; the retry resumes the block
// checkpoint and must finish bitwise-identical to a clean run.
func TestChaosWorkerCrashRetriesBitwise(t *testing.T) {
	specs := []*JobSpec{testSpec("alice", 41), testSpec("alice", 42), testSpec("bob", 43)}
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Chaos = chaosPlan(t, "crash=1")
	})
	defer d.Close()
	ids := submitAll(t, d, specs)
	hashes := waitAllDone(t, d, ids)
	for i, id := range ids {
		if want := fmt.Sprintf("%016x", cleanHash(t, specs[i])); hashes[id] != want {
			t.Fatalf("job %d hash %s after crash+retry, clean run %s", id, hashes[id], want)
		}
	}
	snap := d.Metrics()
	if snap.Counters["server.jobs.retried"] < int64(len(ids)) {
		t.Fatalf("retried %d, want ≥ %d: %+v", snap.Counters["server.jobs.retried"], len(ids), snap.Counters)
	}
}

// TestChaosMidJobCancelTyped: every job is canceled at a hashed block
// boundary and must land in StateCanceled with the typed sentinel.
func TestChaosMidJobCancelTyped(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Chaos = chaosPlan(t, "cancel=1")
	})
	defer d.Close()
	id, err := d.Submit(testSpec("alice", 44))
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.WaitJob(id, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || !strings.Contains(st.Error, "job canceled") {
		t.Fatalf("chaos cancel: state %q err %q", st.State, st.Error)
	}
}

// TestChaosCheckpointCorruptFailsTyped: the first attempt crashes,
// the chaos plan then flips a byte in the block checkpoint's manifest
// (grid.nblm, the one layout at every PS), and the retry's resume must
// fail with ErrCheckpointCorrupt — never a silent restart from
// scratch.
func TestChaosCheckpointCorruptFailsTyped(t *testing.T) {
	for _, ps := range []int{1, 2} {
		t.Run(fmt.Sprintf("ps=%d", ps), func(t *testing.T) {
			d := newTestDaemon(t, t.TempDir(), func(c *Config) {
				c.Chaos = chaosPlan(t, "crash=1,corrupt=1")
			})
			defer d.Close()
			spec := testSpec("alice", 45)
			spec.PS = ps
			id, err := d.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := d.WaitJob(id, 60*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateFailed || !strings.Contains(st.Error, "checkpoint corrupt") {
				t.Fatalf("corrupt resume: state %q err %q", st.State, st.Error)
			}
		})
	}
}

// TestStaleSingleFileCheckpointIgnored: daemons before the one-layout
// change kept a PS = 1 job's checkpoint in ckpt/pfasst.nblv. A job
// directory holding only that file has no grid manifest, so the resume
// finds no checkpoint: the job reruns from t0 and finishes with the
// clean state hash — the stale file is neither read nor an error.
func TestStaleSingleFileCheckpointIgnored(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir, nil)
	defer d.Close()
	spec := testSpec("alice", 50)
	ckpt := filepath.Join(d.jobDir(0), "ckpt")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := &checkpoint.LevelState{Block: 2, StepsDone: 4, TimeRanks: 2, T: 0.125, U: [][]float64{make([]float64, 6*spec.System.N)}}
	if err := checkpoint.SaveLevels(filepath.Join(ckpt, "pfasst.nblv"), stale); err != nil {
		t.Fatal(err)
	}
	ids := submitAll(t, d, []*JobSpec{spec})
	if ids[0] != 0 {
		t.Fatalf("first job of a fresh daemon got id %d, the stale file sits under job 0", ids[0])
	}
	hashes := waitAllDone(t, d, ids)
	if want := fmt.Sprintf("%016x", cleanHash(t, spec)); hashes[0] != want {
		t.Fatalf("job hash %s with a stale pfasst.nblv present, clean run %s", hashes[0], want)
	}
}

// TestChaosRetriesExhaustedTyped: a crash with a zero retry budget
// must fail typed with ErrRetriesExhausted.
func TestChaosRetriesExhaustedTyped(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Chaos = chaosPlan(t, "crash=1")
	})
	defer d.Close()
	spec := testSpec("alice", 46)
	spec.MaxRetries = 0
	id, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.WaitJob(id, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "retry budget exhausted") {
		t.Fatalf("exhausted retries: state %q err %q", st.State, st.Error)
	}
}

// TestChaosKillDuringDrainRestartResumes: the chaos plan aborts the
// drain partway (simulated SIGKILL); a restart on the same directory
// must owe and finish every interrupted job bitwise-identically.
func TestChaosKillDuringDrainRestartResumes(t *testing.T) {
	specs := []*JobSpec{drainSpec("alice", 47), drainSpec("bob", 48)}
	want := make([]string, len(specs))
	for i, spec := range specs {
		want[i] = fmt.Sprintf("%016x", cleanHash(t, spec))
	}
	dir := t.TempDir()
	d1 := newTestDaemon(t, dir, func(c *Config) {
		c.Workers = 1
		c.Chaos = chaosPlan(t, "killdrain=1")
	})
	ids := submitAll(t, d1, specs)
	waitCond(t, 60*time.Second, "a running job past block 0", func() bool {
		for _, st := range d1.Jobs() {
			if st.State == StateRunning && st.Block >= 1 {
				return true
			}
		}
		return false
	})
	if err := d1.Drain(); !errors.Is(err, ErrKilledDuringDrain) {
		t.Fatalf("killed drain returned %v, want ErrKilledDuringDrain", err)
	}

	d2 := newTestDaemon(t, dir, nil)
	defer d2.Close()
	hashes := waitAllDone(t, d2, ids)
	for i, id := range ids {
		if hashes[id] != want[i] {
			t.Fatalf("job %d hash %s after killed drain, clean run %s", id, hashes[id], want[i])
		}
	}
}

// TestChaosSlowClientsServerStaysResponsive: with every submit stalled
// by the slow-client plan, the daemon must still serve status requests
// promptly and finish the work.
func TestChaosSlowClientsServerStaysResponsive(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), func(c *Config) {
		c.Chaos = chaosPlan(t, "slow=1:50ms")
	})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	start := time.Now()
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		bytes.NewReader(testSpec("alice", 49).Canonical()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow submit status %d, want 202", resp.StatusCode)
	}
	var acc struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("slow submit returned in %v, plan demands ≥ 50ms", elapsed)
	}
	// Status lookups are untouched by the submit stall.
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil || h.StatusCode != http.StatusOK {
		t.Fatalf("healthz alongside slow submits: %v status %d", err, h.StatusCode)
	}
	h.Body.Close()
	st, err := d.WaitJob(acc.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}
}
