package server

import (
	"bytes"
	"errors"
	"testing"

	nbody "repro"
)

func validSpecJSON() []byte {
	return []byte(`{
		"tenant": "alice",
		"system": {"kind": "blob", "n": 48, "seed": 7, "sigma": 0.2},
		"t0": 0, "t1": 0.25, "steps": 8, "pt": 2, "ps": 1
	}`)
}

func TestParseJobSpecValid(t *testing.T) {
	spec, err := ParseJobSpec(validSpecJSON())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Tenant != "alice" || spec.Blocks() != 4 {
		t.Fatalf("parsed %+v", spec)
	}
	if spec.MaxRetries != -1 {
		t.Fatalf("omitted max_retries = %d, want -1 (inherit)", spec.MaxRetries)
	}
	sys, err := spec.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 48 {
		t.Fatalf("built %d particles, want 48", sys.N())
	}
	cfg := spec.SolverConfig(t.TempDir())
	if cfg.Resilience.RecvTimeout != nbody.DefaultRecvTimeout || !cfg.Resilience.Resume || cfg.Resilience.CheckpointDir == "" {
		t.Fatalf("solver config lacks forced resilience: %+v", cfg.Resilience)
	}
}

func TestParseJobSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"tenant":"a","bogus":1,"system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1}`,
		"empty tenant":      `{"tenant":"","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1}`,
		"uppercase tenant":  `{"tenant":"Alice","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1}`,
		"unknown kind":      `{"tenant":"a","system":{"kind":"galaxy","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1}`,
		"blob no sigma":     `{"tenant":"a","system":{"kind":"blob","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1}`,
		"zero particles":    `{"tenant":"a","system":{"kind":"vortex","n":0},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1}`,
		"too many ranks":    `{"tenant":"a","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":100,"pt":10,"ps":10}`,
		"steps not mult pt": `{"tenant":"a","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":5,"pt":2,"ps":1}`,
		"t1 below t0":       `{"tenant":"a","system":{"kind":"vortex","n":10},"t0":1,"t1":0,"steps":4,"pt":2,"ps":1}`,
		"bad fault plan":    `{"tenant":"a","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1,"fault_plan":"explode=9"}`,
		"crash phase typo":  `{"tenant":"a","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1,"fault_plan":"crash=1@bogus:0"}`,
		"crash rank > grid": `{"tenant":"a","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1,"fault_plan":"crash=2@iter:1"}`,
		"bad retries":       `{"tenant":"a","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1,"max_retries":99}`,
		"trailing data":     `{"tenant":"a","system":{"kind":"vortex","n":10},"t0":0,"t1":1,"steps":4,"pt":2,"ps":1}{}`,
		"not json":          `hello`,
	}
	for name, body := range cases {
		if _, err := ParseJobSpec([]byte(body)); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: got %v, want ErrBadSpec", name, err)
		}
	}
}

func TestSpecCanonicalRoundTrip(t *testing.T) {
	spec, err := ParseJobSpec(validSpecJSON())
	if err != nil {
		t.Fatal(err)
	}
	canon := spec.Canonical()
	again, err := ParseJobSpec(canon)
	if err != nil {
		t.Fatalf("canonical form rejected: %v", err)
	}
	if !bytes.Equal(canon, again.Canonical()) {
		t.Fatal("canonical encoding not a fixed point")
	}
	if *again != *spec {
		t.Fatalf("canonical round trip: %+v != %+v", again, spec)
	}
}

// TestSpecRetryBudgetSurvivesJournal is the restart reproducer: the
// canonical encoding is what the journal replays, so an explicit
// max_retries — 0 included — and an inherited one (-1) must come back
// with the same budget, and the bytes must be a fixed point.
func TestSpecRetryBudgetSurvivesJournal(t *testing.T) {
	for _, tc := range []struct {
		field string
		want  int // RetryBudget(3)
	}{
		{``, 3},
		{`,"max_retries":-1`, 3},
		{`,"max_retries":0`, 0},
		{`,"max_retries":3`, 3},
		{`,"max_retries":7`, 7},
	} {
		body := `{"tenant":"0","system":{"kind":"coulomb","n":1},"t1":1,"steps":8,"pt":1,"ps":1` + tc.field + `}`
		spec, err := ParseJobSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got := spec.RetryBudget(3); got != tc.want {
			t.Fatalf("%s: budget %d before the round trip, want %d", body, got, tc.want)
		}
		canon := spec.Canonical()
		again, err := ParseJobSpec(canon)
		if err != nil {
			t.Fatalf("%s: canonical form %s rejected: %v", body, canon, err)
		}
		if got := again.RetryBudget(3); got != tc.want {
			t.Fatalf("%s: budget %d after the round trip through %s, want %d", body, got, canon, tc.want)
		}
		if *again != *spec || !bytes.Equal(again.Canonical(), canon) {
			t.Fatalf("%s: canonical encoding %s is not a fixed point", body, canon)
		}
	}
}

func TestSpecDeadlineAndRetryDefaults(t *testing.T) {
	spec := &JobSpec{MaxRetries: -1}
	if got := spec.RetryBudget(3); got != 3 {
		t.Fatalf("inherited budget %d, want 3", got)
	}
	spec.MaxRetries = 0
	if got := spec.RetryBudget(3); got != 0 {
		t.Fatalf("explicit zero budget %d, want 0", got)
	}
	if spec.Deadline(0) != 0 {
		t.Fatal("unbounded deadline not zero")
	}
	spec.DeadlineMS = 250
	if got := spec.Deadline(0); got.Milliseconds() != 250 {
		t.Fatalf("deadline %v, want 250ms", got)
	}
}
