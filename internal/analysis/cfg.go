package analysis

// cfg.go builds per-function control-flow graphs from the plain
// go/ast, the foundation of the v2 flow-sensitive analyzers
// (locksafe, collective, allocfree). The builder is purely
// syntactic — it never consults type information — so it can run on
// anything the parser accepts (see FuzzCFGBuild) and never panics.
//
// Shape of the graph:
//
//   - Every statement and every branch-condition expression lands in
//     exactly one basic block, in source evaluation order.
//   - Short-circuit operators are decomposed: `a && b` evaluates a in
//     one block with an edge to a dedicated block for b (taken only
//     when a is true) and an edge to the false target. Analyzers
//     therefore see each conjunct as its own controlling condition.
//   - Branching statements put their condition in a dedicated block
//     whose Kind names the construct ("cond", "switch.head",
//     "range.head", "select.head", "typeswitch.head"); the block's
//     Nodes hold only the condition expressions, so a controlling
//     block's nodes are exactly what decides the branch.
//   - defer and go statements are recorded as ordinary block nodes
//     (*ast.DeferStmt / *ast.GoStmt); their semantics are left to the
//     analyzers' transfer functions.
//   - return edges flow to the shared Exit block; a statement-level
//     call to the predeclared panic flows to the shared Panic block.
//   - Function literals are never descended into: a FuncLit is an
//     opaque value inside whatever node contains it, and its body is
//     a separate CFG built by whoever cares.
//
// Unreachable statements (code after return/panic/break) still get
// blocks so the "every statement appears in exactly one block"
// invariant holds; those blocks simply have no path from Entry.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: an ordered list of AST nodes (statements
// and/or condition expressions) with successor edges.
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body. Entry, Exit and
// Panic are always present; Exit collects returns and the fall-off-
// the-end path, Panic collects statement-level panic calls.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Panic  *Block
	Blocks []*Block
}

// ReachableFromEntry returns the set of blocks on some path from
// Entry, as a bitset indexed by Block.Index.
func (g *CFG) ReachableFromEntry() []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{g.Entry}
	seen[g.Entry.Index] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// reaches returns the set of blocks from which target is reachable
// (including target itself), as a bitset indexed by Block.Index.
func (g *CFG) reaches(target *Block) []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{target}
	seen[target.Index] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range b.Preds {
			if !seen[p.Index] {
				seen[p.Index] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// BuildCFG constructs the control-flow graph of one function body.
// A nil body (declaration without a body) yields entry→exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{g: g, labels: make(map[string]*Block)}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	g.Panic = b.newBlock("panic")
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.linkCur(g.Exit)
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

// branchTarget is one entry of the break/continue stacks: the label
// (empty for unlabeled constructs) and the jump destination.
type branchTarget struct {
	label string
	block *Block
}

type cfgBuilder struct {
	g         *CFG
	cur       *Block // nil after a terminator; revived as "unreachable"
	breaks    []branchTarget
	continues []branchTarget
	labels    map[string]*Block
	// pendingLabel is set by a LabeledStmt and consumed by the next
	// loop/switch/select so labeled break/continue resolve to it.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// link adds an edge from→to, deduplicating repeats.
func (b *cfgBuilder) link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// linkCur links the current block (if live) to the target.
func (b *cfgBuilder) linkCur(to *Block) { b.link(b.cur, to) }

// live revives the current block after a terminator so trailing
// unreachable statements still land in exactly one block.
func (b *cfgBuilder) live() {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
}

func (b *cfgBuilder) add(n ast.Node) {
	b.live()
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label set by an enclosing LabeledStmt.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// findTarget resolves a break/continue to its destination: the
// innermost entry for an unlabeled branch, the matching label
// otherwise. Returns nil for invalid placements (the parser accepts
// them; the type checker would not) — the branch then just terminates
// the block.
func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	// Any non-labeled statement consumes (discards) a pending label:
	// the label then only names a goto target, not a loop.
	switch s.(type) {
	case *ast.LabeledStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
		*ast.TypeSwitchStmt, *ast.SelectStmt:
	default:
		b.pendingLabel = ""
	}

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.linkCur(lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.live()
		condBlk := b.newBlock("cond")
		b.linkCur(condBlk)
		b.cur = condBlk
		then := b.newBlock("if.then")
		after := b.newBlock("if.after")
		els := after
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmtList(s.Body.List)
		b.linkCur(after)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.linkCur(after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.live()
		head := b.newBlock("cond")
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.linkCur(head)
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, after)
		} else {
			b.link(head, body)
			b.cur = nil
		}
		b.breaks = append(b.breaks, branchTarget{label, after})
		b.continues = append(b.continues, branchTarget{label, post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.linkCur(post)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.linkCur(head)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.live()
		head := b.newBlock("range.head")
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.linkCur(head)
		b.link(head, body)
		b.link(head, after)
		b.breaks = append(b.breaks, branchTarget{label, after})
		b.continues = append(b.continues, branchTarget{label, head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.linkCur(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.live()
		head := b.newBlock("switch.head")
		b.linkCur(head)
		if s.Tag != nil {
			head.Nodes = append(head.Nodes, s.Tag)
		}
		after := b.newBlock("switch.after")
		b.buildClauses(s.Body, head, after, label, true)
		b.cur = after

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.live()
		head := b.newBlock("typeswitch.head")
		b.linkCur(head)
		head.Nodes = append(head.Nodes, s.Assign)
		after := b.newBlock("switch.after")
		b.buildClauses(s.Body, head, after, label, false)
		b.cur = after

	case *ast.SelectStmt:
		label := b.takeLabel()
		b.live()
		head := b.newBlock("select.head")
		b.linkCur(head)
		after := b.newBlock("select.after")
		b.breaks = append(b.breaks, branchTarget{label, after})
		for _, cs := range s.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			cb := b.newBlock("select.comm")
			b.link(head, cb)
			b.cur = cb
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.linkCur(after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		// A select with no clauses blocks forever: head keeps no succs.
		b.cur = after

	case *ast.BranchStmt:
		b.live()
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			b.linkCur(findTarget(b.breaks, labelName(s.Label)))
		case token.CONTINUE:
			b.linkCur(findTarget(b.continues, labelName(s.Label)))
		case token.GOTO:
			if s.Label != nil {
				b.linkCur(b.labelBlock(s.Label.Name))
			}
		case token.FALLTHROUGH:
			// Valid fallthroughs are consumed by buildClauses; one in
			// an invalid position just terminates the block.
		}
		b.cur = nil

	case *ast.ReturnStmt:
		b.add(s)
		b.linkCur(b.g.Exit)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.linkCur(b.g.Panic)
			b.cur = nil
		}

	default:
		// Assignments, declarations, defer, go, send, inc/dec, empty:
		// straight-line nodes.
		b.add(s)
	}
}

// buildClauses wires the case clauses of a (type) switch: head links
// to every clause block (and to after when there is no default); a
// trailing fallthrough links a clause body to the next clause.
func (b *cfgBuilder) buildClauses(body *ast.BlockStmt, head, after *Block, label string, allowFallthrough bool) {
	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i, cc := range clauses {
		if cc.List == nil {
			hasDefault = true
		}
		// Case expressions are part of the branch decision; they live
		// in the head block so controlling-condition checks see them.
		for _, e := range cc.List {
			head.Nodes = append(head.Nodes, e)
		}
		blocks[i] = b.newBlock("case.body")
		b.link(head, blocks[i])
	}
	if !hasDefault {
		b.link(head, after)
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	for i, cc := range clauses {
		b.cur = blocks[i]
		for j, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && allowFallthrough && j == len(cc.Body)-1 && i+1 < len(blocks) {
				b.add(br)
				b.linkCur(blocks[i+1])
				b.cur = nil
				continue
			}
			b.stmt(st)
		}
		b.linkCur(after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
}

// cond lowers a boolean expression to edges: true to t, false to f,
// decomposing short-circuit operators and negation so that every
// atomic condition gets its own block and edge pair.
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	b.live()
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock("cond")
			b.cond(x.X, rhs, f)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond")
			b.cond(x.X, t, rhs)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	b.add(e)
	b.link(b.cur, t)
	b.link(b.cur, f)
	b.cur = nil
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// isPanicCall reports whether the expression is a call to the
// predeclared panic identifier (syntactic — a shadowed panic would
// also match, which is acceptable for control-flow purposes).
func isPanicCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// inspectNoFuncLit walks n like ast.Inspect but does not descend into
// function literals: a FuncLit is an opaque value to the enclosing
// function's flow, with its own CFG.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}

// inspectBlockNode visits one basic-block node without descending
// into nested statement bodies or function literals: for a range
// header only the key/value/operand expressions are visited, every
// other block node is walked whole (the builder guarantees such nodes
// contain no nested statements).
func inspectBlockNode(n ast.Node, fn func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
			if e != nil {
				inspectNoFuncLit(e, fn)
			}
		}
		return
	}
	inspectNoFuncLit(n, fn)
}
