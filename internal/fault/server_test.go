package fault

import (
	"testing"
	"time"
)

func TestParseServerRoundTrip(t *testing.T) {
	p, err := ParseServer("slow=0.3:2ms,cancel=0.2,crash=0.5,corrupt=0.25,killdrain=1", 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.SlowProb != 0.3 || p.SlowDelay != 2*time.Millisecond ||
		p.CancelProb != 0.2 || p.CrashProb != 0.5 || p.CorruptProb != 0.25 || !p.KillDrain {
		t.Fatalf("parsed %+v", p)
	}
	q, err := ParseServer(p.String(), 7)
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if *q != *p {
		t.Fatalf("round trip %+v != %+v", q, p)
	}
}

func TestParseServerRejects(t *testing.T) {
	for _, spec := range []string{
		"slow=0.3", "slow=2:1ms", "cancel=x", "crash=-1", "corrupt=1.5",
		"killdrain=yes", "bogus=1", "crash",
		// NaN passes neither bound test yet is not Empty: it must
		// not parse.
		"crash=NaN", "cancel=NaN", "corrupt=NaN", "slow=NaN:1ms",
	} {
		if _, err := ParseServer(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParseServerEmpty(t *testing.T) {
	p, err := ParseServer("", 1)
	if err != nil || p != nil {
		t.Fatalf("empty spec: plan=%v err=%v", p, err)
	}
	if !p.Empty() {
		t.Fatal("nil plan not Empty")
	}
}

func TestServerPlanDeterministic(t *testing.T) {
	p1, _ := ParseServer("cancel=0.5,crash=0.5,corrupt=0.5", 42)
	p2, _ := ParseServer("cancel=0.5,crash=0.5,corrupt=0.5", 42)
	for job := uint64(0); job < 64; job++ {
		b1, c1 := p1.CancelAt(job, 8)
		b2, c2 := p2.CancelAt(job, 8)
		if b1 != b2 || c1 != c2 {
			t.Fatalf("job %d: CancelAt differs", job)
		}
		k1, x1 := p1.CrashAt(job, 0, 8)
		k2, x2 := p2.CrashAt(job, 0, 8)
		if k1 != k2 || x1 != x2 {
			t.Fatalf("job %d: CrashAt differs", job)
		}
		if p1.CorruptCheckpoint(job, 1) != p2.CorruptCheckpoint(job, 1) {
			t.Fatalf("job %d: CorruptCheckpoint differs", job)
		}
	}
}

func TestServerPlanCrashFirstAttemptOnly(t *testing.T) {
	p, _ := ParseServer("crash=1", 3)
	hit := false
	for job := uint64(0); job < 16; job++ {
		if b, ok := p.CrashAt(job, 0, 8); ok {
			hit = true
			if b < 1 || b >= 8 {
				t.Fatalf("job %d: crash block %d outside [1, 8)", job, b)
			}
		}
		if _, ok := p.CrashAt(job, 1, 8); ok {
			t.Fatalf("job %d: retry attempt crashed", job)
		}
	}
	if !hit {
		t.Fatal("crash=1 never fired")
	}
	if !p.CorruptCheckpoint(0, 1) == p.CorruptCheckpoint(0, 1) {
		t.Fatal("unreachable")
	}
}

func TestServerPlanNilSafe(t *testing.T) {
	var p *ServerPlan
	if _, ok := p.SlowSubmit(1); ok {
		t.Fatal("nil plan slowed a submit")
	}
	if _, ok := p.CancelAt(1, 4); ok {
		t.Fatal("nil plan canceled")
	}
	if _, ok := p.CrashAt(1, 0, 4); ok {
		t.Fatal("nil plan crashed")
	}
	if p.CorruptCheckpoint(1, 1) || p.KillDuringDrain() {
		t.Fatal("nil plan injected")
	}
	if !p.Empty() {
		t.Fatal("nil plan not Empty")
	}
}
