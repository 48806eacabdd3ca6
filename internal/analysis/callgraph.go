package analysis

// callgraph.go builds the module-scoped call graph the module-level
// analyzer (allocfree) traverses. Functions are keyed by
// string symbols ("pkgpath.Func" / "pkgpath.Recv.Method") rather than
// *types.Func identity: the loader type-checks a package once as an
// analysis unit and again (library files only) when it is imported by
// another unit, so the same function is represented by distinct
// objects — the symbol is the stable cross-unit name.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one declared function or method of the analyzed units.
type FuncNode struct {
	Sym     string
	PkgName string // package name (not path): scopes analyzer domains
	Decl    *ast.FuncDecl
	Unit    *Unit
	// Hot marks a //lint:hotpath root (steady-state entry point of
	// the zero-alloc contract); Cold marks a //lint:coldpath pruning
	// point (slow path excluded from hot reachability, reason given).
	Hot        bool
	Cold       bool
	ColdReason string
	Callees    []string // sorted, deduplicated callee symbols
}

// CallGraph is the module-scoped call graph over a set of units.
type CallGraph struct {
	Funcs map[string]*FuncNode
	order []string
}

// Order returns every function symbol in deterministic (sorted) order.
func (g *CallGraph) Order() []string { return g.order }

// funcSym derives the stable symbol of a function object:
// "pkgpath.Name" for package functions, "pkgpath.Recv.Name" for
// methods (pointer receivers and value receivers share a symbol).
func funcSym(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := "?"
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name()
		}
		return fn.Pkg().Path() + "." + name + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// calleeSym resolves the callee symbol of a call expression, or ""
// for builtins, function values and other dynamic calls.
func calleeSym(info *types.Info, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	return funcSym(fn)
}

// ParseMarkDirective parses a comment as a //lint:hotpath or
// //lint:coldpath marker. hotpath takes an optional reason; coldpath
// requires one (it excludes code from a checked contract, so the
// justification must be written down). Malformed markers are not
// directives and mark nothing.
func ParseMarkDirective(text string) (kind, reason string, ok bool) {
	body, found := strings.CutPrefix(text, "//lint:")
	if !found {
		return "", "", false
	}
	for _, k := range []string{"hotpath", "coldpath"} {
		rest, found := strings.CutPrefix(body, k)
		if !found {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			return "", "", false
		}
		reason = strings.TrimSpace(rest)
		if k == "coldpath" && reason == "" {
			return "", "", false
		}
		return k, reason, true
	}
	return "", "", false
}

// BuildCallGraph indexes every function declared in non-test files of
// the units and the static call edges between them. Calls inside
// function literals are attributed to the enclosing declaration
// (conservative for reachability). Dynamic calls through function
// values contribute no edges.
func BuildCallGraph(units []*Unit) *CallGraph {
	g := &CallGraph{Funcs: make(map[string]*FuncNode)}
	for _, u := range units {
		for _, f := range u.Files {
			pos := u.Fset.Position(f.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := u.Info.Defs[fd.Name].(*types.Func)
				sym := funcSym(obj)
				if sym == "" {
					continue
				}
				node := &FuncNode{Sym: sym, PkgName: u.Pkg.Name(), Decl: fd, Unit: u}
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						kind, reason, ok := ParseMarkDirective(c.Text)
						if !ok {
							continue
						}
						switch kind {
						case "hotpath":
							node.Hot = true
						case "coldpath":
							node.Cold = true
							node.ColdReason = reason
						}
					}
				}
				if fd.Body != nil {
					seen := make(map[string]bool)
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if s := calleeSym(u.Info, call); s != "" && !seen[s] {
							seen[s] = true
							node.Callees = append(node.Callees, s)
						}
						return true
					})
					sort.Strings(node.Callees)
				}
				// A symbol can legitimately repeat across units (a
				// package is checked both as a unit and as an import);
				// the first (unit-ordered) declaration wins.
				if _, dup := g.Funcs[sym]; !dup {
					g.Funcs[sym] = node
					g.order = append(g.order, sym)
				}
			}
		}
	}
	sort.Strings(g.order)
	return g
}
