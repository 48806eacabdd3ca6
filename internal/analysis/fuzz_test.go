package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzParseIgnoreDirective asserts the suppression parser's contract
// on arbitrary input: it never panics, a malformed directive is never
// accepted (ok implies a non-empty whitespace-free rule and a
// non-empty reason), and acceptance implies the canonical "//lint:ignore"
// prefix — so no fuzzer-invented comment can silently suppress a
// finding.
func FuzzParseIgnoreDirective(f *testing.F) {
	f.Add("//lint:ignore hookcost guarded by the caller")
	f.Add("//lint:ignore determinism")
	f.Add("// lint:ignore hookcost spaced out")
	f.Add("//lint:ignorehookcost glued")
	f.Add("//lint:ignore  rule  multi word reason")
	f.Add("/*lint:ignore rule reason*/")
	f.Add("//nolint:everything")
	f.Add("//lint:ignore\trule\ttab separated")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		rule, reason, ok := ParseIgnoreDirective(text)
		if !ok {
			if rule != "" || reason != "" {
				t.Fatalf("rejected input %q returned non-empty parts (%q, %q)", text, rule, reason)
			}
			return
		}
		if rule == "" || reason == "" {
			t.Fatalf("accepted %q with empty rule/reason (%q, %q)", text, rule, reason)
		}
		if strings.IndexFunc(rule, unicode.IsSpace) >= 0 {
			t.Fatalf("accepted %q with whitespace in rule %q", text, rule)
		}
		if !strings.HasPrefix(text, "//lint:ignore") {
			t.Fatalf("accepted %q without the canonical prefix", text)
		}
	})
}

// FuzzCFGBuild asserts the CFG builder's contract on every function
// body the parser accepts: it never panics, every leaf statement
// lands in exactly one block, block indexes round-trip, and Preds
// mirror Succs. The builder is purely syntactic, so parseability is
// the only precondition — type errors, undefined names, and invalid
// branch placements must all be tolerated.
func FuzzCFGBuild(f *testing.F) {
	seeds := []string{
		"x := 1\nif x > 0 && x < 10 {\n\tx++\n} else {\n\treturn\n}",
		"for i := 0; i < 3; i++ {\n\tif i == 1 {\n\t\tcontinue\n\t}\n\tbreak\n}",
		"L:\n\tfor {\n\t\tgoto L\n\t}",
		"switch x := 1; x {\ncase 1:\n\tfallthrough\ncase 2:\n\treturn\ndefault:\n\tpanic(\"d\")\n}",
		"select {\ncase v := <-ch:\n\t_ = v\ndefault:\n}",
		"defer f()\ngo g()\nreturn\nx := 1\n_ = x",
		"for k, v := range m {\n\tdelete(m, k)\n\t_ = v\n}",
		"switch t := v.(type) {\ncase int:\n\t_ = t\n}",
		"break\ncontinue\nfallthrough",
		"}\nfunc g() { return }\nfunc h() {",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\nfunc f() {\n" + body + "\n}"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := BuildCFG(fd.Body)
			checkCFGInvariants(t, g, fd.Body)
		}
	})
}

// FuzzEmitJSONReport asserts the -json emitter's contract on
// arbitrary diagnostic content: never panics, always a valid object
// with the engine string and a findings array (never null), findings
// round-tripped in the deterministic sorted order.
func FuzzEmitJSONReport(f *testing.F) {
	f.Add("hot.go", 12, 3, "allocfree", "make on the steady-state hot path allocates every call")
	f.Add("server.go", 40, 2, "locksafe", "mu is locked here but not released on every path")
	f.Add("resilient.go", 170, 7, "collective", "collective Agree may not be reached on all ranks")
	f.Add("tree.go", 65, 2, "determinism", "uniçode \"quotes\" <html> \x00")
	f.Add("", -1, 0, "", "\x00 not utf8 \xff")
	f.Fuzz(func(t *testing.T, file string, line, col int, rule, msg string) {
		ds := []Diagnostic{
			{File: file, Line: line, Col: col, Rule: rule, Message: msg},
			{File: "aa.go", Line: 2, Col: 2, Rule: "nilsafe", Message: "fixed"},
		}
		var buf bytes.Buffer
		if err := EmitJSONReport(&buf, ds); err != nil {
			t.Fatalf("EmitJSONReport error: %v", err)
		}
		var rep Report
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatalf("emitted report does not parse: %v\n%s", err, buf.Bytes())
		}
		if rep.Engine != EngineVersion {
			t.Fatalf("engine = %q, want %q", rep.Engine, EngineVersion)
		}
		if rep.Findings == nil {
			t.Fatal("findings decoded as null")
		}
		if len(rep.Findings) != len(ds) {
			t.Fatalf("round-trip length %d, want %d", len(rep.Findings), len(ds))
		}
		if !utf8.ValidString(file) || !utf8.ValidString(rule) || !utf8.ValidString(msg) {
			return
		}
		sorted := make([]Diagnostic, len(ds))
		copy(sorted, ds)
		sortDiagnostics(sorted)
		for i := range sorted {
			if rep.Findings[i] != sorted[i] {
				t.Fatalf("round-trip[%d] = %+v, want %+v", i, rep.Findings[i], sorted[i])
			}
		}
	})
}

// TestEmitJSONEmpty pins the empty-input representation: an array,
// not null.
func TestEmitJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := EmitJSONReport(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Fatalf("EmitJSONReport(nil) = %q, want an empty findings array", buf.String())
	}
}
