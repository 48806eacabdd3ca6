// Package analysis is a stdlib-only, vet-style static-analysis driver
// that machine-checks the repository's cross-cutting invariants: the
// bitwise-determinism contract of the numeric packages, the
// zero-cost-when-disabled contract of the telemetry/guard/fault hooks,
// lock release on every path, rank-uniform collective placement, and
// the zero-alloc steady-state hot path. Everything is built on go/ast,
// go/parser and go/types with the source importer — no external
// dependencies.
//
// Diagnostics are reported deterministically (sorted by file, line,
// column, rule, message) and can be suppressed per line with a
//
//	//lint:ignore <rule> <reason>
//
// directive placed on the offending line or the line directly above
// it. A directive without a reason is malformed and suppresses
// nothing; a well-formed one that names no registered rule or
// suppresses no finding is itself reported. See DESIGN.md §13 for the
// rule catalogue and the suppression policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired and a
// human-readable message. The JSON field names are part of the -json
// output contract of cmd/nbodylint.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the go-vet-style file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// sortDiagnostics orders findings deterministically: file, line,
// column, rule, message. Every report path funnels through this so
// repeated runs over the same tree emit byte-identical output.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// Pass is the per-package analysis context handed to each analyzer:
// the parsed files, the type-checked package and its use/def/selection
// info, plus the module-wide nil-safe method set (see nilsafe.go).
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	NilSafe map[string]bool
	// ModulePath scopes convention-based type matching (hook type
	// names) to packages of the module under analysis, so stdlib types
	// that happen to share a name (time.Timer) are not misclassified.
	ModulePath string

	*reporter
}

// reporter is the one finding sink of a run, shared by every Pass and
// the ModulePass: the suppression index over all loaded units and the
// findings that survived it.
type reporter struct {
	fset     *token.FileSet
	suppress map[suppKey]*directive
	diags    []Diagnostic
}

type suppKey struct {
	file string
	line int
	rule string
}

// Reportf records a finding unless a //lint:ignore directive for the
// rule covers its line; a directive that does is marked used.
func (r *reporter) Reportf(pos token.Pos, rule, format string, args ...any) {
	position := r.fset.Position(pos)
	if d := r.suppress[suppKey{file: position.Filename, line: position.Line, rule: rule}]; d != nil {
		d.used = true
		return
	}
	r.add(position, rule, fmt.Sprintf(format, args...))
}

// add records a finding past the suppression index.
func (r *reporter) add(position token.Position, rule, message string) {
	r.diags = append(r.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: message,
	})
}

// isTestFile reports whether the file the node belongs to is a _test.go
// file. Several rules exempt tests (see each analyzer's doc).
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// EngineVersion identifies the analysis engine generation in the
// -json report: v1 was the intraprocedural AST matcher, v2 added the
// CFG + dataflow engine (cfg.go, dataflow.go, callgraph.go) and the
// flow-sensitive rules, 2.1 cut the rule set to five and added the
// directive check. Bump on changes that can alter the finding set.
const EngineVersion = "2.1.0"

// Analyzer is one named rule: a documentation string and a Run
// function that inspects a Pass and reports findings. Rules that need
// the whole loaded unit set at once (call-graph reachability,
// cross-package summaries) implement RunModule instead; exactly one
// of Run/RunModule is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// ModulePass is the analysis context of a module-level rule: every
// loaded unit plus the call graph across them. Reporting and
// suppression work exactly as on Pass.
type ModulePass struct {
	Fset  *token.FileSet
	Units []*Unit
	Graph *CallGraph

	*reporter
}

// Analyzers returns the full rule set in deterministic (name) order:
// the rules with a recorded in-tree true positive (DESIGN.md §13).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerAllocFree,
		AnalyzerCollective,
		AnalyzerDeterminism,
		AnalyzerHookCost,
		AnalyzerLockSafe,
	}
}

// RunUnits applies the analyzers to a coherent set of units:
// unit-level rules per unit, then module-level rules once over the
// whole set with the call graph built across it, then the directive
// check over every //lint:ignore the units carry. This is the entry
// point both the CLI driver and the golden-fixture runner use.
func RunUnits(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	if len(units) == 0 {
		return nil
	}
	suppress, directives := collectSuppressions(units)
	r := &reporter{fset: units[0].Fset, suppress: suppress}
	needModule := false
	for _, a := range analyzers {
		if a.RunModule != nil {
			needModule = true
			continue
		}
		for _, u := range units {
			a.Run(&Pass{
				Fset:       u.Fset,
				Files:      u.Files,
				Pkg:        u.Pkg,
				Info:       u.Info,
				NilSafe:    u.NilSafe,
				ModulePath: u.ModulePath,
				reporter:   r,
			})
		}
	}
	if needModule {
		mp := &ModulePass{Fset: r.fset, Units: units, Graph: BuildCallGraph(units), reporter: r}
		for _, a := range analyzers {
			if a.RunModule != nil {
				a.RunModule(mp)
			}
		}
	}
	reportStaleDirectives(r, directives, analyzers)
	sortDiagnostics(r.diags)
	return r.diags
}

// inspectWithStack walks the subtree like ast.Inspect but hands the
// callback the full ancestor stack (stack[len-1] is n itself).
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(n, stack) {
			// The callback pruned this subtree; pop eagerly because
			// ast.Inspect will not deliver the matching nil.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t implements the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}
