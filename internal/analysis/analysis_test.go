package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGolden runs the full analyzer set over every fixture package in
// testdata/src and matches the diagnostics against the // want
// annotations: every diagnostic must be wanted and every want must be
// produced, on the exact line it is written.
func TestGolden(t *testing.T) {
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			units, err := l.LoadForAnalysis(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Module-scoped run: unit rules plus the call-graph rule
			// (allocfree) over this fixture's units, then the driver's
			// directive check.
			got := RunUnits(units, Analyzers())
			wants := parseWants(t, dir)
			matched := make([]bool, len(wants))
		diag:
			for _, d := range got {
				base := filepath.Base(d.File)
				text := d.Rule + ": " + d.Message
				for i, w := range wants {
					if matched[i] || w.file != base || w.line != d.Line {
						continue
					}
					if w.re.MatchString(text) {
						matched[i] = true
						continue diag
					}
				}
				t.Errorf("unexpected diagnostic %s:%d: %s", base, d.Line, text)
			}
			for i, w := range wants {
				if !matched[i] {
					t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// wantRE extracts the expectation regex from a // want comment; both
// the backquoted and the double-quoted forms are accepted.
var wantRE = regexp.MustCompile("// want (?:`([^`]+)`|\"([^\"]+)\")")

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ws []want
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			expr := m[1]
			if expr == "" {
				expr = m[2]
			}
			re, err := regexp.Compile(expr)
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), i+1, expr, err)
			}
			ws = append(ws, want{file: e.Name(), line: i + 1, re: re})
		}
	}
	return ws
}

// TestGoldenHasPositives guards the golden corpus itself: at least one
// want annotation per rule, so a regression that silences an analyzer
// cannot pass as "all wants matched" — and the rule set is the five
// rules with a recorded in-tree catch (DESIGN.md §13), no more.
func TestGoldenHasPositives(t *testing.T) {
	if n := len(Analyzers()); n != 5 {
		t.Errorf("%d analyzers registered, want 5", n)
	}
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	perRule := make(map[string]int)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		for _, w := range parseWants(t, filepath.Join(root, e.Name())) {
			rule, _, _ := strings.Cut(w.re.String(), ":")
			perRule[rule]++
		}
	}
	for _, a := range Analyzers() {
		if perRule[a.Name] == 0 {
			t.Errorf("no golden positive exercises rule %q", a.Name)
		}
	}
}

func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		text         string
		rule, reason string
		ok           bool
	}{
		{"//lint:ignore hookcost exact zero is a flag", "hookcost", "exact zero is a flag", true},
		{"//lint:ignore determinism  padded   reason ", "determinism", "padded   reason", true},
		{"//lint:ignore determinism", "", "", false},       // reason missing
		{"//lint:ignore", "", "", false},                   // rule missing
		{"// lint:ignore hookcost spaced", "", "", false},  // space after //
		{"//lint:ignorehookcost reason", "", "", false},    // rule glued to keyword
		{"/*lint:ignore hookcost reason*/", "", "", false}, // block comment
		{"//nolint:hookcost wrong vocabulary", "", "", false},
		{"", "", "", false},
	}
	for _, c := range cases {
		rule, reason, ok := ParseIgnoreDirective(c.text)
		if rule != c.rule || reason != c.reason || ok != c.ok {
			t.Errorf("ParseIgnoreDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, rule, reason, ok, c.rule, c.reason, c.ok)
		}
	}
}
