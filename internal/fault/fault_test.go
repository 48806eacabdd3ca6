package fault

import (
	"math"
	"reflect"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("drop=0.05,delay=0.1:50us,corrupt=0.02,crash=1@iter:2,retries=4,backoff=7us", 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.DropProb != 0.05 || p.DelayProb != 0.1 || p.CorruptProb != 0.02 {
		t.Fatalf("probs: %+v", p)
	}
	if math.Abs(p.DelaySeconds-50e-6) > 1e-12 {
		t.Fatalf("delay seconds %g", p.DelaySeconds)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (Crash{Rank: 1, Phase: "iter", Epoch: 2}) {
		t.Fatalf("crash: %+v", p)
	}
	if p.MaxRetries != 4 || math.Abs(p.RetryBackoff-7e-6) > 1e-12 {
		t.Fatalf("retries/backoff: %+v", p)
	}
	if !p.CrashAt(1, "iter", 2) || p.CrashAt(0, "iter", 2) || p.CrashAt(1, "block", 2) {
		t.Fatal("CrashAt mismatch")
	}
}

func TestParseMultiCrash(t *testing.T) {
	p, err := Parse("crash=2@block:0,crash=5@iter:1", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 2 {
		t.Fatalf("want 2 crashes, got %+v", p.Crashes)
	}
	if p.Transient() {
		t.Fatal("multi-crash plan reported transient")
	}
	if !p.CrashAt(2, "block", 0) || !p.CrashAt(5, "iter", 1) || p.CrashAt(2, "iter", 1) {
		t.Fatal("CrashAt mismatch on multi-crash plan")
	}
	// String round-trips through Parse (crash order preserved).
	q, err := Parse(p.String(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != p.String() {
		t.Fatalf("round trip: %q != %q", q.String(), p.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"drop=2", "drop=x", "drop=NaN", "bogus=1", "crash=1", "crash=x@iter:0",
		"crash=1@iter", "corrupt=0.1:weird", "delay", "backoff=zz",
		// Crashes that could never fire: a phase no FaultPoint passes,
		// a negative epoch.
		"crash=1@bogus:0", "crash=1@degraded:0", "crash=1@:0", "crash=1@iter:-1",
		"delay=0.1:-5us", "backoff=2h",
	} {
		if _, err := Parse(spec, 0); err == nil {
			t.Errorf("spec %q: expected error", spec)
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	p, err := Parse("", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() || !p.Transient() {
		t.Fatalf("empty spec should be empty plan: %+v", p)
	}
	v := p.Message(0, 1, 5, 0, 8)
	if v.Injected || v.Lost || v.ExtraDelay != 0 {
		t.Fatalf("empty plan injected a fault: %+v", v)
	}
}

func TestVerdictsDeterministic(t *testing.T) {
	p, _ := Parse("drop=0.2,delay=0.3:20us,corrupt=0.1", 123)
	for seq := uint64(0); seq < 200; seq++ {
		a := p.Message(0, 1, 9, seq, 64)
		b := p.Message(0, 1, 9, seq, 64)
		if a != b {
			t.Fatalf("seq %d: verdicts differ: %+v vs %+v", seq, a, b)
		}
	}
	// Different seeds must give different fault patterns.
	q, _ := Parse("drop=0.2,delay=0.3:20us,corrupt=0.1", 124)
	same := 0
	const n = 500
	for seq := uint64(0); seq < n; seq++ {
		if p.Message(0, 1, 9, seq, 64) == q.Message(0, 1, 9, seq, 64) {
			same++
		}
	}
	if same == n {
		t.Fatal("seed change did not change the fault pattern")
	}
}

func TestInjectionRatesRoughlyMatch(t *testing.T) {
	p, _ := Parse("drop=0.2", 5)
	injected, lost := 0, 0
	const n = 20000
	for seq := uint64(0); seq < n; seq++ {
		v := p.Message(2, 3, 7, seq, 128)
		if v.Injected {
			injected++
		}
		if v.Lost {
			lost++
		}
	}
	rate := float64(injected) / n
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("drop injection rate %.3f far from 0.2", rate)
	}
	// p^(retries+1) = 0.2^7 ≈ 1.3e-5: a hard loss should be very rare.
	if lost > 5 {
		t.Fatalf("%d hard losses out of %d messages", lost, n)
	}
	// A recovered drop must carry backoff latency.
	for seq := uint64(0); seq < n; seq++ {
		v := p.Message(2, 3, 7, seq, 128)
		if v.Recovered && v.ExtraDelay <= 0 {
			t.Fatalf("seq %d: recovered without backoff", seq)
		}
	}
}

func TestLeakCorruptTruncates(t *testing.T) {
	p, _ := Parse("corrupt=1:leak", 1)
	v := p.Message(0, 1, 2, 3, 16)
	if !v.Injected || !v.CorruptTruncate || v.Recovered {
		t.Fatalf("leak verdict: %+v", v)
	}
	// Absorbed mode instead recovers with backoff.
	q, _ := Parse("corrupt=1", 1)
	v = q.Message(0, 1, 2, 3, 16)
	if !v.Injected || !v.Recovered || v.CorruptTruncate || v.ExtraDelay <= 0 {
		t.Fatalf("absorbed verdict: %+v", v)
	}
}

// TestCheckRanks: a crash of a rank the run does not have is refused,
// so a typo'd plan cannot run clean.
func TestCheckRanks(t *testing.T) {
	p, err := Parse("crash=1@iter:1,crash=3@block:4", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		size int
		ok   bool
	}{{4, true}, {8, true}, {3, false}, {2, false}} {
		if err := p.CheckRanks(c.size); (err == nil) != c.ok {
			t.Errorf("CheckRanks(%d) = %v, want ok = %v", c.size, err, c.ok)
		}
	}
	if err := New(0).CheckRanks(1); err != nil {
		t.Errorf("crash-free plan: %v", err)
	}
}

// FuzzParse covers both spec grammars of the package, the transport
// plan and the server plan: a spec either fails to parse or yields a
// plan whose String form parses back to an equal plan (empty plans
// render as placeholders and are skipped). A probability that injects
// nothing but counts as set, such as NaN, breaks the round trip.
func FuzzParse(f *testing.F) {
	f.Add("drop=0.05,delay=0.1:50us,corrupt=0.02:leak,crash=1@iter:2,retries=4,backoff=7us", int64(42))
	f.Add("delay=0.2,corrupt=0:leak,crash=0@block:0,crash=3@predictor:1", int64(1))
	f.Add("slow=0.3:2ms,cancel=0.2,crash=0.5,corrupt=0.25,killdrain=1", int64(7))
	f.Add("crash=NaN,slow=0:1s,cancel=1", int64(0))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		if p, err := Parse(spec, seed); err == nil && !p.Empty() {
			q, err := Parse(p.String(), seed)
			if err != nil {
				t.Fatalf("transport round trip of %q -> %q: %v", spec, p.String(), err)
			}
			if !reflect.DeepEqual(p, q) {
				t.Fatalf("transport round trip of %q: %+v vs %+v", spec, p, q)
			}
		}
		if p, err := ParseServer(spec, seed); err == nil && !p.Empty() {
			q, err := ParseServer(p.String(), seed)
			if err != nil || q == nil {
				t.Fatalf("server round trip of %q -> %q: %v", spec, p.String(), err)
			}
			if *q != *p {
				t.Fatalf("server round trip of %q: %+v vs %+v", spec, p, q)
			}
		}
	})
}
