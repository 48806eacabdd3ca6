package main

import "testing"

// A flag the selection would not read is named; every other
// combination passes.
func TestIgnoredFlag(t *testing.T) {
	for _, tc := range []struct {
		fig, exp string
		set      []string
		want     string
	}{
		{exp: "phases", set: []string{"xt-out"}, want: "xt-out"},
		{exp: "fig5-xt", set: []string{"xt-out"}},
		{exp: "FIG5-XT", set: []string{"xt-out"}},
		{set: []string{"xt-out"}}, // everything: fig5-xt runs
		{fig: "5", set: []string{"xt-out"}, want: "xt-out"},
		{fig: "1", set: []string{"threads", "balance"}, want: "threads"},
		{fig: "1", set: []string{"balance"}, want: "balance"},
		{exp: "phases", set: []string{"threads", "balance"}},
		{set: []string{"threads", "balance", "paper"}},
		{fig: "1", set: []string{"paper"}, want: "paper"},
		{exp: "fig5-xt", set: []string{"paper"}, want: "paper"},
		{fig: "7a", set: []string{"paper"}},
		{fig: "7b", set: []string{"paper"}},
		{fig: "8", set: []string{"paper"}},
		{fig: "8", exp: "phases", set: []string{"paper", "threads"}},
		// Flags every selection reads are never ignored.
		{fig: "1", set: []string{"fig", "list", "csv", "json", "pproflabels", "cpuprofile"}},
	} {
		if got := ignoredFlag(tc.set, selection(tc.fig, tc.exp)); got != tc.want {
			t.Errorf("-fig %q -exp %q with %v: ignored %q, want %q", tc.fig, tc.exp, tc.set, got, tc.want)
		}
	}
}
