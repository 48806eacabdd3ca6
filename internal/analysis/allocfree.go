package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// allocfree statically enforces the 0 allocs/op contract of the
// steady-state evaluation path (BENCH_PR6, the ci.sh layout lane):
// the benchmark smoke proves the contract empirically for one
// configuration, this rule proves it structurally for every function
// reachable from a //lint:hotpath root.
//
// Scope: the call-graph closure of the //lint:hotpath-marked roots,
// restricted to the numeric hot packages (hot, kernel, tree, pfasst,
// sdc) and pruned at //lint:coldpath functions (miss/recovery/setup
// paths that are allowed to allocate, with the justification written
// in the directive). Inside that closure, the following allocate per
// call and are flagged:
//
//   - make / new;
//   - slice and map composite literals, and any &T{...};
//   - append through a target that is not arena-backed (not a field,
//     dereference, element, parameter, or a local derived from one) —
//     growing a transient slice;
//   - capturing closures (a closure object per evaluation);
//   - interface boxing of non-pointer-shaped values at call
//     arguments, assignments and returns.
//
// Exemptions keep the grow-then-reuse arena idiom clean: an
// allocation guarded by a condition mentioning cap() or a nil
// comparison is the amortized growth path (tree/arena.go's growU64),
// and allocations inside panic calls or on branches that exit with a
// non-nil error are failure paths, not steady state.
var AnalyzerAllocFree = &Analyzer{
	Name:      "allocfree",
	Doc:       "no allocations on the steady-state Eval paths of hot/kernel/tree and the PFASST block body (//lint:hotpath roots)",
	RunModule: runAllocFree,
}

// allocFreePkgs are the package names whose functions participate in
// hot-path reachability: the Eval paths of internal/hot,
// internal/kernel and internal/tree, and the PFASST block body of
// internal/pfasst with the SDC sweeper it drives.
var allocFreePkgs = map[string]bool{"hot": true, "kernel": true, "tree": true, "pfasst": true, "sdc": true, "mpi": true}

func runAllocFree(mp *ModulePass) {
	g := mp.Graph
	hot := make(map[string]bool)
	var queue []string
	for _, sym := range g.Order() {
		if g.Funcs[sym].Hot {
			hot[sym] = true
			queue = append(queue, sym)
		}
	}
	for len(queue) > 0 {
		sym := queue[0]
		queue = queue[1:]
		for _, callee := range g.Funcs[sym].Callees {
			cn, ok := g.Funcs[callee]
			if !ok || hot[callee] || cn.Cold || !allocFreePkgs[cn.PkgName] {
				continue
			}
			hot[callee] = true
			queue = append(queue, callee)
		}
	}
	for _, sym := range g.Order() {
		if hot[sym] && g.Funcs[sym].Decl.Body != nil {
			checkAllocFunc(mp, g.Funcs[sym])
		}
	}
}

func checkAllocFunc(mp *ModulePass, fn *FuncNode) {
	info := fn.Unit.Info
	backed := backedSlices(info, fn.Decl)
	inspectWithStack(fn.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch builtinName(info, x) {
			case "make":
				if !allocSiteExempt(info, stack) {
					mp.Reportf(x.Pos(), "allocfree",
						"make on the steady-state hot path allocates every call: reuse an arena-backed buffer or guard the growth with cap()")
				}
			case "new":
				if !allocSiteExempt(info, stack) {
					mp.Reportf(x.Pos(), "allocfree",
						"new on the steady-state hot path allocates every call")
				}
			case "append":
				if len(x.Args) > 0 && !appendTargetBacked(info, backed, x.Args[0]) && !allocSiteExempt(info, stack) {
					mp.Reportf(x.Pos(), "allocfree",
						"append may grow a transient slice on the steady-state hot path: append into an arena-backed buffer instead")
				}
			case "":
				checkCallBoxing(mp, info, x, stack)
			}
		case *ast.CompositeLit:
			if len(stack) >= 2 {
				if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.X == x {
					return true // handled at the UnaryExpr
				}
			}
			if tv, ok := info.Types[x]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					if !allocSiteExempt(info, stack) {
						mp.Reportf(x.Pos(), "allocfree",
							"%s composite literal on the steady-state hot path allocates every call", typeKindName(tv.Type))
					}
				}
			}
		case *ast.UnaryExpr:
			if cl, ok := x.X.(*ast.CompositeLit); ok && x.Op == token.AND {
				if !allocSiteExempt(info, stack) {
					mp.Reportf(cl.Pos(), "allocfree",
						"&composite literal on the steady-state hot path escapes to the heap every call")
				}
			}
		case *ast.FuncLit:
			if caps := closureCaptures(info, fn.Decl, x); len(caps) > 0 && !allocSiteExempt(info, stack) {
				mp.Reportf(x.Pos(), "allocfree",
					"closure capturing %s allocates a closure object per call on the steady-state hot path", joinNames(caps))
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) || len(x.Lhs) != len(x.Rhs) {
					break
				}
				var target types.Type
				if tv, ok := info.Types[lhs]; ok {
					target = tv.Type
				} else if id, ok := lhs.(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						target = obj.Type()
					}
				}
				if src, boxes := boxesInterface(info, x.Rhs[i], target); boxes && !allocSiteExempt(info, stack) {
					mp.Reportf(x.Rhs[i].Pos(), "allocfree",
						"interface boxing of %s on the steady-state hot path allocates", src)
				}
			}
		case *ast.ReturnStmt:
			sig := enclosingSignature(info, stack)
			if sig == nil || sig.Results() == nil {
				return true
			}
			if len(x.Results) != sig.Results().Len() {
				return true
			}
			for i, res := range x.Results {
				if src, boxes := boxesInterface(info, res, sig.Results().At(i).Type()); boxes && !allocSiteExempt(info, stack) {
					mp.Reportf(res.Pos(), "allocfree",
						"interface boxing of %s on the steady-state hot path allocates", src)
				}
			}
		}
		return true
	})
}

// builtinName resolves the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
		return id.Name
	}
	return ""
}

func typeKindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// allocSiteExempt walks the ancestor stack of an allocation site and
// exempts the recognized cold idioms: the cap()/nil grow guard, panic
// arguments, and branches that exit with a non-nil error. The walk
// stops at the innermost function literal — a guard outside a closure
// does not cover allocations inside it.
func allocSiteExempt(info *types.Info, stack []ast.Node) bool {
	node := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		case *ast.CallExpr:
			if isPanicCall(s) {
				return true
			}
		case *ast.ReturnStmt:
			if returnsNonNilError(info, s) {
				return true
			}
		case *ast.IfStmt:
			if condMentionsCapOrNil(s.Cond) {
				return true
			}
			if branch := ifBranchContaining(s, node); branch != nil && branchExitsCold(info, branch) {
				return true
			}
		}
	}
	return false
}

// condMentionsCapOrNil recognizes the grow-guard shape: a condition
// comparing cap() or testing nil decides whether to (re)allocate —
// the amortized growth path of the arena idiom.
func condMentionsCapOrNil(cond ast.Expr) bool {
	found := false
	inspectNoFuncLit(cond, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "cap" {
				found = true
			}
		case *ast.Ident:
			if x.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}

// ifBranchContaining returns the then/else block holding the node.
func ifBranchContaining(s *ast.IfStmt, node ast.Node) *ast.BlockStmt {
	if s.Body != nil && node.Pos() >= s.Body.Pos() && node.End() <= s.Body.End() {
		return s.Body
	}
	if els, ok := s.Else.(*ast.BlockStmt); ok && node.Pos() >= els.Pos() && node.End() <= els.End() {
		return els
	}
	return nil
}

// branchExitsCold reports whether a block's last statement leaves the
// steady state: a panic or a return carrying a non-nil error.
func branchExitsCold(info *types.Info, blk *ast.BlockStmt) bool {
	if len(blk.List) == 0 {
		return false
	}
	switch last := blk.List[len(blk.List)-1].(type) {
	case *ast.ExprStmt:
		return isPanicCall(last.X)
	case *ast.ReturnStmt:
		return returnsNonNilError(info, last)
	}
	return false
}

// returnsNonNilError reports whether a return statement carries a
// non-nil error value.
func returnsNonNilError(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		tv, ok := info.Types[res]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		if implementsError(tv.Type) {
			return true
		}
	}
	return false
}

// boxesInterface reports whether assigning expr to a target of
// interface type boxes a non-pointer-shaped concrete value (one heap
// allocation per conversion).
func boxesInterface(info *types.Info, expr ast.Expr, target types.Type) (string, bool) {
	if target == nil {
		return "", false
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return "", false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return "", false
	}
	src := tv.Type
	if _, already := src.Underlying().(*types.Interface); already {
		return "", false
	}
	if pointerShaped(src) {
		return "", false
	}
	return types.TypeString(src, func(p *types.Package) string { return p.Name() }), true
}

// pointerShaped reports whether values of t fit in one pointer word
// without boxing (the runtime stores them directly in the interface).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// checkCallBoxing flags implicit interface conversions at call
// arguments (fmt-style ...any sinks are the classic hot-path alloc).
func checkCallBoxing(mp *ModulePass, info *types.Info, call *ast.CallExpr, stack []ast.Node) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if src, boxes := boxesInterface(info, arg, pt); boxes && !allocSiteExempt(info, stack) {
			mp.Reportf(arg.Pos(), "allocfree",
				"interface boxing of %s on the steady-state hot path allocates", src)
		}
	}
}

// enclosingSignature finds the signature of the innermost function
// containing the stack tip.
func enclosingSignature(info *types.Info, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			if tv, ok := info.Types[f]; ok && tv.Type != nil {
				if sig, ok := tv.Type.(*types.Signature); ok {
					return sig
				}
			}
			return nil
		case *ast.FuncDecl:
			if fn, ok := info.Defs[f.Name].(*types.Func); ok {
				return fn.Type().(*types.Signature)
			}
			return nil
		}
	}
	return nil
}

// backedSlices computes (flow-insensitively, to a fixpoint) the local
// variables holding arena-backed storage: parameters, plus locals
// derived from fields, dereferences, elements, other backed locals,
// or appends/reslices of those. Appending to a backed slice writes
// into caller- or struct-owned storage and only allocates on the
// amortized growth path.
func backedSlices(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	backed := make(map[types.Object]bool)
	addParams := func(ft *ast.FuncType) {
		if ft == nil || ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					backed[obj] = true
				}
			}
		}
	}
	addParams(decl.Type)
	ast.Inspect(decl, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			addParams(fl.Type)
		}
		return true
	})

	type binding struct {
		obj types.Object
		rhs ast.Expr
	}
	var binds []binding
	ast.Inspect(decl, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					binds = append(binds, binding{obj, s.Rhs[i]})
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					if obj := info.Defs[name]; obj != nil {
						binds = append(binds, binding{obj, s.Values[i]})
					}
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, b := range binds {
			if !backed[b.obj] && appendTargetBacked(info, backed, b.rhs) {
				backed[b.obj] = true
				changed = true
			}
		}
	}
	return backed
}

// appendTargetBacked reports whether an expression denotes
// arena-backed storage.
func appendTargetBacked(info *types.Info, backed map[types.Object]bool, e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		return obj != nil && backed[obj]
	case *ast.SliceExpr:
		return appendTargetBacked(info, backed, x.X)
	case *ast.CallExpr:
		if builtinName(info, x) == "append" && len(x.Args) > 0 {
			return appendTargetBacked(info, backed, x.Args[0])
		}
	}
	return false
}

// closureCaptures lists the enclosing function's local variables a
// function literal captures (sorted, deduplicated). Package-level
// state is not a per-call capture.
func closureCaptures(info *types.Info, decl *ast.FuncDecl, fl *ast.FuncLit) []string {
	declared := make(map[types.Object]bool)
	ast.Inspect(fl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})
	seen := make(map[string]bool)
	var names []string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || declared[obj] {
			return true
		}
		// Captured iff declared inside the enclosing declaration but
		// outside the literal itself.
		if obj.Pos() >= decl.Pos() && obj.Pos() < decl.End() &&
			!(obj.Pos() >= fl.Pos() && obj.Pos() < fl.End()) {
			if !seen[obj.Name()] {
				seen[obj.Name()] = true
				names = append(names, obj.Name())
			}
		}
		return true
	})
	sort.Strings(names)
	return names
}
