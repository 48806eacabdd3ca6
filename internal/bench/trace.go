package bench

import (
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// solver: the benchmark records spans around the calls it makes, from
// outside; spans inside the solver are the telemetry package's
// business. Start and End are seconds since the tracer was created.
type Span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root span
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// Tracer keeps the spans of one traced run in memory. A nil *Tracer is
// the disabled tracer of the untraced end-to-end runs: Begin returns
// -1 and End ignores it, so call sites need no branches.
type Tracer struct {
	workload string
	base     time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an enabled tracer labelling its spans with the
// workload name.
func NewTracer(workload string) *Tracer {
	return &Tracer{workload: workload, base: time.Now()}
}

// Begin opens a span under parent (-1 for a root) and returns its ID.
func (t *Tracer) Begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Workload: t.workload, Name: name, Start: now, End: now})
	return id
}

// End closes the span.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// Spans returns a copy of the recorded spans in creation order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part
// of it its direct children cover. The benchmark's spans are opened
// and closed on one goroutine, so siblings never overlap and the
// children's durations simply add up.
func SelfTimes(spans []Span) []float64 {
	self := make([]float64, len(spans))
	for _, sp := range spans {
		self[sp.ID] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	return self
}
