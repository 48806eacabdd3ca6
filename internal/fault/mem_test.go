package fault

import (
	"math"
	"testing"
)

func TestParseMemDefaults(t *testing.T) {
	m, err := ParseMem("rate=0.5", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Enabled(MemState) || !m.Enabled(MemTree) {
		t.Fatalf("default domains should be state+tree, got %v", m.Domains)
	}
	if m.Enabled(MemBlock) {
		t.Fatalf("block must be opt-in, got %v", m.Domains)
	}
	if m.loBit() != DefaultLoBit || m.hiBit() != DefaultHiBit {
		t.Fatalf("default bit window %d-%d", m.loBit(), m.hiBit())
	}
	if m.Sticky {
		t.Fatal("sticky must default off")
	}
}

func TestParseMemFull(t *testing.T) {
	m, err := ParseMem("rate=1e-3,in=state+block,bits=0-63,sticky", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate != 1e-3 || !m.Sticky || m.loBit() != 0 || m.hiBit() != 63 {
		t.Fatalf("parsed %+v", m)
	}
	if !m.Enabled(MemState) || !m.Enabled(MemBlock) || m.Enabled(MemTree) {
		t.Fatalf("domains %v", m.Domains)
	}
	// String renders a spec that parses back to the same plan.
	m2, err := ParseMem(m.String(), 1)
	if err != nil {
		t.Fatalf("round-trip %q: %v", m.String(), err)
	}
	if *m2 != *m {
		t.Fatalf("round-trip mismatch: %+v vs %+v", m, m2)
	}
}

func TestParseMemErrors(t *testing.T) {
	for _, spec := range []string{
		"rate=2", "rate=-0.1", "rate=x", "rate=NaN",
		"in=bogus", "in=ckpt", "in=state+ckpt", "bits=9", "bits=5-99", "bits=60-50", "bits=0-0",
		"unknown=1", "noequals",
	} {
		if _, err := ParseMem(spec, 0); err == nil {
			t.Errorf("ParseMem(%q) accepted", spec)
		}
	}
}

func TestMemFlipDeterminism(t *testing.T) {
	m, _ := ParseMem("rate=0.3,in=state+tree+block,bits=0-63", 99)
	for i := 0; i < 2000; i++ {
		b1, ok1 := m.Flip(MemState, 4, 1, i)
		b2, ok2 := m.Flip(MemState, 4, 1, i)
		if b1 != b2 || ok1 != ok2 {
			t.Fatalf("non-deterministic verdict at %d", i)
		}
	}
}

// The transient model re-rolls per attempt so retries come back clean;
// sticky keeps the verdict regardless of attempt.
func TestMemFlipAttemptSemantics(t *testing.T) {
	tr, _ := ParseMem("rate=0.4,bits=0-63", 3)
	st, _ := ParseMem("rate=0.4,bits=0-63,sticky", 3)
	differs := false
	for i := 0; i < 500; i++ {
		if _, a0 := tr.Flip(MemState, 0, 0, i); a0 {
			if _, a1 := tr.Flip(MemState, 0, 1, i); a0 != a1 {
				differs = true
			}
		}
		b0, s0 := st.Flip(MemState, 0, 0, i)
		b1, s1 := st.Flip(MemState, 0, 7, i)
		if s0 != s1 || b0 != b1 {
			t.Fatalf("sticky verdict changed with attempt at %d", i)
		}
	}
	if !differs {
		t.Fatal("transient verdicts never changed across attempts")
	}
}

func TestMemFlipRateAndWindow(t *testing.T) {
	m, _ := ParseMem("rate=0.25,in=state,bits=40-47", 11)
	n := 20000
	flips := 0
	for i := 0; i < n; i++ {
		if bit, ok := m.Flip(MemState, 0, 0, i); ok {
			flips++
			if bit < 40 || bit > 47 {
				t.Fatalf("bit %d outside window 40-47", bit)
			}
		}
	}
	got := float64(flips) / float64(n)
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("empirical rate %.3f, want ~0.25", got)
	}
	// Disabled domain: no verdicts at all.
	if _, ok := m.Flip(MemTree, 0, 0, 0); ok {
		t.Fatal("flip in disabled domain")
	}
}

func TestFlipWords(t *testing.T) {
	m, _ := ParseMem("rate=0.5,in=state,bits=0-63", 5)
	words := make([]float64, 1000)
	for i := range words {
		words[i] = float64(i) + 0.5
	}
	ref := append([]float64(nil), words...)
	n := m.FlipWords(MemState, 2, 0, words)
	if n == 0 {
		t.Fatal("no flips at rate 0.5")
	}
	changed := 0
	for i := range words {
		if math.Float64bits(words[i]) != math.Float64bits(ref[i]) {
			changed++
		}
	}
	if changed != n {
		t.Fatalf("reported %d flips, %d words changed", n, changed)
	}
	// Empty plans are nil-safe no-ops.
	var nilPlan *MemPlan
	if nilPlan.FlipWords(MemState, 0, 0, words) != 0 || !nilPlan.Empty() {
		t.Fatal("nil plan must inject nothing")
	}
}

func TestFlipBit(t *testing.T) {
	x := 1.5
	if FlipBit(FlipBit(x, 63), 63) != x {
		t.Fatal("double flip is not identity")
	}
	if FlipBit(x, 63) != -1.5 {
		t.Fatal("sign-bit flip")
	}
}

func FuzzParseMem(f *testing.F) {
	f.Add("rate=0.5", int64(1))
	f.Add("rate=1e-3,in=state+tree+block,bits=0-63,sticky", int64(42))
	f.Add("bits=52-63", int64(0))
	f.Add(",,,rate=0,", int64(-1))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		m, err := ParseMem(spec, seed)
		if err != nil {
			return
		}
		// A parsed plan must round-trip through its String form unless
		// empty (String collapses empty plans to "none").
		if m.Empty() {
			return
		}
		m2, err := ParseMem(m.String(), seed)
		if err != nil {
			t.Fatalf("round-trip of %q -> %q: %v", spec, m.String(), err)
		}
		if *m2 != *m {
			t.Fatalf("round-trip mismatch: %+v vs %+v", m, m2)
		}
		// Verdicts stay within the configured window and never panic.
		for i := 0; i < 64; i++ {
			if bit, ok := m.Flip(MemState, 1, 0, i); ok {
				if int(bit) < m.loBit() || int(bit) > m.hiBit() {
					t.Fatalf("bit %d outside %d-%d", bit, m.loBit(), m.hiBit())
				}
			}
		}
	})
}
