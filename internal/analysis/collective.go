package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// collective machine-checks the PR 8 deadlock class: an MPI
// collective (Agree/Allgather*/Allreduce*/ShrinkTo — every rank of
// the communicator must call it, or the ranks that do block forever)
// reached on only some ranks' control-flow paths. The death-epoch bug
// fixed in PR 8 was exactly this: a collective guarded by a condition
// that evaluated differently per rank.
//
// The check is a control-dependence analysis over the CFG combined
// with a rank-uniformity approximation (DESIGN.md §13): a collective
// call site is flagged when a branch decides whether the site is
// reached AND the branch condition is rank-variant. The approximation
// is optimistic and local: only designated rank-variant sources taint
// a condition —
//
//   - Comm.Rank / Comm.WorldRank (per-rank identity),
//   - Comm.Recv* / Comm.Now (per-rank message timing
//     and per-rank clocks),
//   - time.Now and global math/rand draws,
//   - channel receives, select statements (arrival order), and
//     recover() (a panic observed on this rank only),
//
// propagated through local assignments. Parameters, struct fields,
// results of other calls (including the collectives themselves: an
// agreed value is uniform by construction) and captured variables are
// assumed uniform — interprocedural divergence is out of scope and is
// the reason intentional sites carry a reasoned //lint:ignore.
//
// Package mpi (which implements the collectives and may legitimately
// branch per rank inside them) and _test.go files (which orchestrate
// ranks explicitly) are exempt.
var AnalyzerCollective = &Analyzer{
	Name: "collective",
	Doc:  "mpi collectives must be reached unconditionally or guarded only by rank-uniform conditions",
	Run:  runCollective,
}

// collectiveMethods are the Comm methods every member rank must call
// together.
var collectiveMethods = map[string]bool{
	"Agree": true, "AgreeDeadRanks": true, "ShrinkTo": true,
	"Allgather": true, "AllgatherBatchedOverlap": true,
	"AllreduceFloat64": true, "AllreduceInt64": true,
}

// rankVariantMethods are the Comm methods whose results differ per
// rank by construction.
var rankVariantMethods = map[string]bool{
	"Rank": true, "WorldRank": true, "Now": true,
	"Recv": true, "RecvDeadline": true,
	"RecvFloat64s": true, "RecvFloat64sDeadline": true,
}

// commMethodOf resolves a call to a method on the module's Comm named
// type (or a fixture type of the same name) and returns the method
// name.
func commMethodOf(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Comm" {
		return "", false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !pathInModule(pkg.Path(), p.ModulePath) {
		return "", false
	}
	return sel.Sel.Name, true
}

// pathInModule reports whether an import path belongs to the module
// under analysis.
func pathInModule(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

func runCollective(p *Pass) {
	if p.Pkg.Name() == "mpi" {
		return
	}
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				collectiveCheckBody(p, body)
			}
			return true
		})
	}
}

func collectiveCheckBody(p *Pass, body *ast.BlockStmt) {
	found := false
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := commMethodOf(p, call); ok && collectiveMethods[name] {
				found = true
			}
		}
		return !found
	})
	if !found {
		return
	}

	g := BuildCFG(body)
	taint := solveRankTaint(p, g)

	// Locate every collective call site and the block holding it.
	type site struct {
		block *Block
		call  *ast.CallExpr
		name  string
	}
	var sites []site
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			inspectBlockNode(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if name, ok := commMethodOf(p, call); ok && collectiveMethods[name] {
						sites = append(sites, site{block: b, call: call, name: name})
					}
				}
				return true
			})
		}
	}

	reach := g.ReachableFromEntry()
	for _, s := range sites {
		if !reach[s.block.Index] {
			continue // dead code cannot desynchronize ranks
		}
		reachesSite := g.reaches(s.block)
		for _, c := range g.Blocks {
			if !reach[c.Index] || len(c.Succs) < 2 {
				continue
			}
			hit, miss := false, false
			for _, succ := range c.Succs {
				if reachesSite[succ.Index] {
					hit = true
				} else {
					miss = true
				}
			}
			if !hit || !miss {
				continue
			}
			if why, variant := branchRankVariant(p, c, taint[c.Index]); variant {
				p.Reportf(s.call.Pos(), "collective",
					"collective %s may not be reached on all ranks: guarded by rank-variant condition (%s) at line %d",
					s.name, why, p.Fset.Position(blockCondPos(c, s.call.Pos())).Line)
				break // one controlling condition per site is enough
			}
		}
	}
}

// blockCondPos picks a stable position for a controlling block's
// condition (its first node, falling back to the site position for
// node-less heads like select).
func blockCondPos(b *Block, fallback token.Pos) token.Pos {
	if len(b.Nodes) > 0 {
		return b.Nodes[0].Pos()
	}
	return fallback
}

// branchRankVariant decides whether a controlling block branches on
// rank-variant data, given the taint fact at its entry.
func branchRankVariant(p *Pass, c *Block, fact objSet) (string, bool) {
	switch c.Kind {
	case "select.head":
		// Which select clause wins depends on per-rank message and
		// timer arrival order.
		return "select over channel operations", true
	case "range.head":
		if len(c.Nodes) == 1 {
			if r, ok := c.Nodes[0].(*ast.RangeStmt); ok {
				if tv, ok := p.Info.Types[r.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						return "range over channel", true
					}
				}
				if why, v := exprRankVariant(p, r.X, fact); v {
					return why, true
				}
			}
		}
		return "", false
	default:
		for _, n := range c.Nodes {
			e, ok := n.(ast.Expr)
			if !ok {
				if as, isAssign := n.(ast.Stmt); isAssign {
					// typeswitch.head holds its assign statement.
					var found string
					variant := false
					inspectBlockNode(as, func(m ast.Node) bool {
						if variant {
							return false
						}
						if ex, ok := m.(ast.Expr); ok {
							if why, v := exprRankVariantShallow(p, ex, fact); v {
								found, variant = why, true
								return false
							}
						}
						return true
					})
					if variant {
						return found, true
					}
				}
				continue
			}
			if why, v := exprRankVariant(p, e, fact); v {
				return why, true
			}
		}
		return "", false
	}
}

// exprRankVariant reports whether any sub-expression of e is a
// rank-variant source or a variable tainted by one. A collective call
// is an uniformity boundary: its result is agreed across ranks by
// construction, so the walk does not descend into it — guarding a
// collective with another collective (the cancel/resume idiom of
// internal/core) is exactly how rank-variant data is laundered into a
// rank-uniform decision.
func exprRankVariant(p *Pass, e ast.Expr, fact objSet) (string, bool) {
	var why string
	variant := false
	inspectNoFuncLit(e, func(n ast.Node) bool {
		if variant {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := commMethodOf(p, call); ok && collectiveMethods[name] {
				return false // agreed value: uniform regardless of inputs
			}
		}
		ex, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if w, v := exprRankVariantShallow(p, ex, fact); v {
			why, variant = w, true
			return false
		}
		return true
	})
	return why, variant
}

// exprRankVariantShallow classifies one expression node (no descent).
func exprRankVariantShallow(p *Pass, e ast.Expr, fact objSet) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[x]; obj != nil {
			if _, tainted := fact[obj]; tainted {
				return x.Name + " derived from " + fact.label(obj), true
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.CallExpr:
		if w, v := callRankVariant(p, x); v {
			return w, true
		}
	}
	return "", false
}

// callRankVariant classifies a call expression as a rank-variant
// source.
func callRankVariant(p *Pass, call *ast.CallExpr) (string, bool) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			return "recover()", true
		}
	}
	if name, ok := commMethodOf(p, call); ok && rankVariantMethods[name] {
		return "Comm." + name, true
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			return "time.Now", true
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return "global math/rand." + fn.Name(), true
		}
	}
	return "", false
}

// objSet is the taint fact: the set of local objects holding
// rank-variant values, each with the label of its source (kept for
// messages; the lexicographically smallest label wins a join so the
// result is deterministic).
type objSet map[types.Object]string

func (s objSet) label(o types.Object) string {
	if l := s[o]; l != "" && l != "1" {
		return l
	}
	return "a rank-variant source"
}

func objSetEqual(a, b objSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func objSetJoin(a, b objSet) objSet {
	out := make(objSet, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if w, ok := out[k]; !ok || v < w {
			out[k] = v
		}
	}
	return out
}

// solveRankTaint runs the forward rank-variance taint analysis over
// the CFG: assignments from variant expressions taint their targets,
// assignments from uniform expressions clear them (strong update).
func solveRankTaint(p *Pass, g *CFG) []objSet {
	return Solve(g, Problem[objSet]{
		Bottom:   func() objSet { return objSet{} },
		Boundary: func() objSet { return objSet{} },
		Transfer: func(b *Block, in objSet) objSet {
			out := make(objSet, len(in))
			for k, v := range in {
				out[k] = v
			}
			for _, n := range b.Nodes {
				rankTaintNode(p, n, out)
			}
			return out
		},
		Join:  objSetJoin,
		Equal: objSetEqual,
	})
}

// rankTaintNode applies one block node's gen/kill effect to the fact
// (mutates out, which the Transfer wrapper owns).
func rankTaintNode(p *Pass, n ast.Node, out objSet) {
	assign := func(lhs ast.Expr, why string, variant bool) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if variant {
			out[obj] = why
		} else {
			delete(out, obj)
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			why, variant := exprRankVariant(p, s.Rhs[0], out)
			for _, lhs := range s.Lhs {
				assign(lhs, why, variant)
			}
			return
		}
		for i, lhs := range s.Lhs {
			if i < len(s.Rhs) {
				why, variant := exprRankVariant(p, s.Rhs[i], out)
				if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
					// Compound assignment mixes old and new: taint
					// only gains, never clears.
					if variant {
						assign(lhs, why, true)
					}
					continue
				}
				assign(lhs, why, variant)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				variant := false
				why := ""
				if i < len(vs.Values) {
					why, variant = exprRankVariant(p, vs.Values[i], out)
				} else if len(vs.Values) == 1 {
					why, variant = exprRankVariant(p, vs.Values[0], out)
				}
				assign(name, why, variant)
			}
		}
	case *ast.RangeStmt:
		// Ranging over a variant collection taints the loop
		// variables; over a channel, both are timing-variant.
		why, variant := exprRankVariant(p, s.X, out)
		if tv, ok := p.Info.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				why, variant = "range over channel", true
			}
		}
		for _, lhs := range []ast.Expr{s.Key, s.Value} {
			if lhs != nil {
				assign(lhs, why, variant)
			}
		}
	}
}
