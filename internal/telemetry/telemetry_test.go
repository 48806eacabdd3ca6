package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Add(5)
	c.Inc()
	if c.Load() != 6 {
		t.Fatalf("counter = %d, want 6", c.Load())
	}
	if r.Counter("c") != c {
		t.Fatal("Counter not idempotent by name")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.SetMax(1.0) // lower: ignored
	if g.Load() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Load())
	}
	g.SetMax(7.25)
	if g.Load() != 7.25 {
		t.Fatalf("gauge = %v, want 7.25", g.Load())
	}

	tm := r.Timer("t")
	tm.Observe(0.5)
	tm.Observe(1.5)
	s := r.Snapshot()
	ts := s.Timer("t")
	if ts.Count != 2 || ts.Total != 2.0 || ts.Max != 1.5 {
		t.Fatalf("timer stat = %+v", ts)
	}
	if s.Counter("c") != 6 {
		t.Fatalf("snapshot counter = %d", s.Counter("c"))
	}
}

func TestSpanUsesRegistryClock(t *testing.T) {
	// A fake monotonic clock makes span durations exact.
	now := 0.0
	r := NewWithClock(func() float64 { return now })
	tm := r.Timer("phase")
	sp := tm.Start()
	now = 3.25
	sp.Stop()
	got := r.Snapshot().Timer("phase")
	if got.Count != 1 || got.Total != 3.25 || got.Max != 3.25 {
		t.Fatalf("span stat = %+v", got)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x")
	g := r.Gauge("x")
	tm := r.Timer("x")
	if c != nil || g != nil || tm != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Add(3)
	c.Inc()
	g.Set(1)
	g.SetMax(2)
	tm.Observe(1)
	tm.Start().Stop()
	if c.Load() != 0 || g.Load() != 0 {
		t.Fatal("nil handles must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Timers) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

// TestParallelWriters hammers one registry from many goroutines; run
// under -race this is the concurrency-safety proof of the metrics
// layer (satellite task of ISSUE 1).
func TestParallelWriters(t *testing.T) {
	r := New()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the goroutines resolve their own handles (exercising
			// the registration lock), half share pre-resolved ones.
			c := r.Counter("shared")
			g := r.Gauge("peak")
			tm := r.Timer("phase")
			own := r.Counter("own")
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				own.Inc()
				g.SetMax(float64(w*perWorker + i))
				tm.Observe(1e-6)
				if i%64 == 0 {
					sp := r.Timer("span").Start()
					sp.Stop()
				}
			}
		}(w)
	}
	// Concurrent snapshots must also be safe.
	var sg sync.WaitGroup
	for i := 0; i < 4; i++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for j := 0; j < 50; j++ {
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	sg.Wait()

	s := r.Snapshot()
	want := int64(workers * perWorker)
	if s.Counter("shared") != want || s.Counter("own") != want {
		t.Fatalf("counters = %d/%d, want %d", s.Counter("shared"), s.Counter("own"), want)
	}
	if got := s.Gauges["peak"]; got != float64(workers*perWorker-1) {
		t.Fatalf("gauge max = %v", got)
	}
	ph := s.Timer("phase")
	if ph.Count != want {
		t.Fatalf("timer count = %d, want %d", ph.Count, want)
	}
	if math.Abs(ph.Total-float64(want)*1e-6) > 1e-9*float64(want) {
		t.Fatalf("timer total drifted: %v", ph.Total)
	}
}

// TestDisabledPathAllocationFree proves the "zero allocations when
// disabled" contract with testing.AllocsPerRun: the exact sequence of
// telemetry calls the traversal hot path makes must not allocate when
// the registry is nil.
func TestDisabledPathAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("hot.interactions")
	g := r.Gauge("hot.work_imbalance")
	tm := r.Timer("hot.traverse")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tm.Start()
		c.Add(17)
		c.Inc()
		g.SetMax(3.5)
		sp.Stop()
		tm.Observe(1e-9)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocates %v per op, want 0", allocs)
	}
}

// The enabled path must also be allocation-free once handles are
// resolved (atomics only) — this is what "low-overhead" means.
func TestEnabledPathAllocationFree(t *testing.T) {
	r := NewWithClock(func() float64 { return 0 })
	c := r.Counter("c")
	g := r.Gauge("g")
	tm := r.Timer("t")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tm.Start()
		c.Add(1)
		g.SetMax(2)
		sp.Stop()
	})
	if allocs != 0 {
		t.Fatalf("enabled telemetry path allocates %v per op, want 0", allocs)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{
		Counters: map[string]int64{"n": 3},
		Gauges:   map[string]float64{"g": 1.5},
		Timers:   map[string]TimerStat{"t": {Count: 1, Total: 2, Max: 2}},
	}
	b := Snapshot{
		Counters: map[string]int64{"n": 4, "m": 1},
		Gauges:   map[string]float64{"g": 0.5},
		Timers:   map[string]TimerStat{"t": {Count: 2, Total: 1, Max: 0.75}},
	}
	a.Merge(b)
	if a.Counters["n"] != 7 || a.Counters["m"] != 1 {
		t.Fatalf("merged counters: %+v", a.Counters)
	}
	if a.Gauges["g"] != 1.5 {
		t.Fatalf("merged gauge: %v", a.Gauges["g"])
	}
	tm := a.Timers["t"]
	if tm.Count != 3 || tm.Total != 3 || tm.Max != 2 {
		t.Fatalf("merged timer: %+v", tm)
	}
	// Merge into a zero snapshot allocates the maps.
	var zero Snapshot
	zero.Merge(a)
	if zero.Counters["n"] != 7 {
		t.Fatalf("merge into zero snapshot: %+v", zero)
	}
}

func TestEmitters(t *testing.T) {
	r := New()
	r.Counter("hot.interactions").Add(42)
	r.Gauge("hot.work_imbalance").Set(1.25)
	r.Timer("hot.traverse").Observe(0.125)
	s := r.Snapshot()

	var jbuf bytes.Buffer
	if err := s.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jbuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["hot.interactions"] != 42 || back.Timers["hot.traverse"].Total != 0.125 {
		t.Fatalf("JSON round trip: %+v", back)
	}

	var tbuf bytes.Buffer
	if err := s.Fprint(&tbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbuf.String(), "hot.traverse") {
		t.Fatalf("table output:\n%s", tbuf.String())
	}
}

func TestPprofLabelsToggle(t *testing.T) {
	SetPprofLabels(true)
	defer SetPprofLabels(false)
	if !PprofLabelsEnabled() {
		t.Fatal("labels should be enabled")
	}
	r := New()
	sp := r.Timer("labelled-phase").Start()
	sp.Stop() // must label and unlabel without panicking
	if r.Snapshot().Timer("labelled-phase").Count != 1 {
		t.Fatal("span not recorded under labeling")
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	c := New().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var r *Registry
	tm := r.Timer("t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tm.Start()
		sp.Stop()
	}
}
