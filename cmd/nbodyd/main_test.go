package main

import "testing"

// A flag the daemon would not read is named; every other combination
// passes.
func TestIgnoredFlag(t *testing.T) {
	for _, tc := range []struct {
		chaos string
		set   []string
		want  string
	}{
		{set: []string{"chaos-seed"}, want: "chaos-seed"},
		{set: []string{"addr", "chaos-seed", "workers"}, want: "chaos-seed"},
		{chaos: "crash=0.5", set: []string{"chaos", "chaos-seed"}},
		{chaos: "crash=0.5", set: []string{"chaos"}},
		{set: []string{"addr", "dir", "workers", "queue", "retries", "shed"}},
		{},
	} {
		if got := ignoredFlag(tc.set, tc.chaos); got != tc.want {
			t.Errorf("-chaos %q with %v: ignored %q, want %q", tc.chaos, tc.set, got, tc.want)
		}
	}
}
