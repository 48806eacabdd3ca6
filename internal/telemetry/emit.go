package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// WriteJSON emits the snapshot as indented JSON (map keys are sorted
// by encoding/json, so the output is deterministic).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Fprint renders the snapshot as an aligned human-readable table — the
// per-phase breakdown printed by cmd/experiments.
func (s Snapshot) Fprint(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(s.Timers) > 0 {
		fmt.Fprintln(tw, "phase\tspans\ttotal(s)\tmax(s)")
		for _, name := range sortedKeys(s.Timers) {
			t := s.Timers[name]
			fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\n", name, t.Count, t.Total, t.Max)
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(tw, "counter\tvalue\t\t")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(tw, "%s\t%d\t\t\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(tw, "gauge\tvalue\t\t")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(tw, "%s\t%.6g\t\t\n", name, s.Gauges[name])
		}
	}
	return tw.Flush()
}
