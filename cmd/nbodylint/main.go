// Command nbodylint is the repo's own static-analysis gate: a
// vet-style driver (internal/analysis, stdlib-only) enforcing the
// invariants the reproduction's headline claims rest on — bitwise
// determinism in numeric packages, zero-cost disabled hooks, lock
// release on all paths, rank-uniform collective placement, and the
// zero-alloc steady-state contract.
//
// Usage:
//
//	go run ./cmd/nbodylint [-json] [-rules name,name] [-list] ./...
//
// Findings print as file:line:col: rule: message, sorted, and the
// exit status is 1 when any finding survives suppression. Suppress a
// single line with "//lint:ignore <rule> <reason>" on the offending
// line or the line directly above it; a directive that names no
// registered rule or suppresses nothing is itself a finding. -json
// emits a deterministic report object {"engine": <version>,
// "findings": [...]} whose findings array is never null; -rules
// restricts the run to a comma-separated subset of rules; -list
// prints the rule set. See DESIGN.md §13.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the engine-versioned JSON report")
	listRules := flag.Bool("list", false, "print the rule set and exit")
	rulesSpec := flag.String("rules", "", "comma-separated subset of rules to run")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: nbodylint [-json] [-rules name,name] [-list] <packages>  (e.g. ./...)")
	}
	flag.Parse()
	analyzers := analysis.Analyzers()
	if *listRules {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *rulesSpec != "" {
		byName := make(map[string]*analysis.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*rulesSpec, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "nbodylint: unknown rule %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.RunRules(patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbodylint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := analysis.EmitJSONReport(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "nbodylint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "nbodylint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
