package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerDeterminism enforces the bitwise-reproducibility contract of
// the numeric packages (DESIGN.md §5, §8): the paper's convergence
// claim is only checkable because identical runs produce identical
// bits, so sources of run-to-run variation are banned from numeric
// code. Three patterns are flagged:
//
//   - ranging over a map while appending to a slice or accumulating
//     floating-point state: Go randomizes map iteration order, so the
//     result depends on the run (writes indexed by the range key are
//     order-independent and allowed);
//   - package-level math/rand functions, which draw from the shared
//     global source (a seeded *rand.Rand via rand.New(rand.NewSource)
//     is the reproducible alternative and is allowed);
//   - time.Now, whose wall-clock reads differ between runs.
//
// The rule applies only to packages named in numericPackages; the
// infrastructure packages (telemetry, sched, machine, mpi, fault,
// experiments, viz) and all _test.go files are exempt by design — see
// DESIGN.md §13 for the allowlist rationale.
var AnalyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc:  "numeric packages must not use map-iteration-ordered state, global math/rand, or time.Now",
	Run:  runDeterminism,
}

// numericPackages are the packages under the bitwise-determinism
// contract, keyed by package name. The allowlisted complement —
// telemetry, sched, machine, mpi, fault, experiments, viz, the nbody
// façade and every _test.go file — may use wall clocks and unordered
// iteration because their outputs never feed numeric state.
var numericPackages = map[string]bool{
	"tree": true, "kernel": true, "pfasst": true, "sdc": true,
	"guard": true, "hot": true, "core": true, "quadrature": true,
	"particle": true, "direct": true, "vec": true,
	"rk": true, "ode": true, "field": true,
	"parareal": true, "checkpoint": true,
}

func runDeterminism(pass *Pass) {
	if !numericPackages[pass.Pkg.Name()] {
		return
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[node.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						checkMapRangeBody(pass, node)
					}
				}
			case *ast.CallExpr:
				checkGlobalRandAndClock(pass, node)
			}
			return true
		})
	}
}

// checkMapRangeBody flags order-dependent writes inside a map-range
// body: append calls and floating-point compound assignments whose
// target is not indexed by the range key.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt) {
	keyObj := rangeKeyObject(pass, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if id, ok := node.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
					pass.Reportf(node.Pos(), "determinism",
						"append inside range over map: slice order depends on randomized map iteration (iterate sorted keys instead)")
				}
			}
		case *ast.AssignStmt:
			switch node.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			default:
				return true
			}
			for _, lhs := range node.Lhs {
				tv, ok := pass.Info.Types[lhs]
				if !ok || !isFloat(tv.Type) {
					continue
				}
				if indexedByKey(pass, lhs, keyObj) {
					continue // per-key accumulation is order-independent
				}
				pass.Reportf(node.Pos(), "determinism",
					"floating-point accumulation inside range over map: summation order depends on randomized map iteration (iterate sorted keys instead)")
			}
		}
		return true
	})
}

// rangeKeyObject resolves the loop-key variable object of a range
// statement, or nil.
func rangeKeyObject(pass *Pass, rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// indexedByKey reports whether lhs is an index expression whose index
// is exactly the range key (m2[k] += v: one write per key, order
// cannot matter).
func indexedByKey(pass *Pass, lhs ast.Expr, key types.Object) bool {
	if key == nil {
		return false
	}
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := idx.Index.(*ast.Ident)
	return ok && pass.Info.Uses[id] == key
}

// randConstructors are the package-level math/rand functions that
// build explicitly seeded generators rather than drawing from the
// global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// checkGlobalRandAndClock flags package-level math/rand draws and
// time.Now reads.
func checkGlobalRandAndClock(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return // methods on *rand.Rand / time.Time are fine
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "determinism",
				"global math/rand.%s draws from the shared process-wide source: use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", fn.Name())
		}
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "determinism",
				"time.Now in a numeric package: wall-clock reads vary between runs and break bitwise reproducibility")
		}
	}
}

// isFloat reports whether t's core type is a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
