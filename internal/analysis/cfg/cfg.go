// Package cfg builds intraprocedural control-flow graphs from go/ast
// function bodies. It is the foundation of zivlint's flow-sensitive
// analyzers (detflow, sidecarsync, allocpure): a Graph decomposes a
// function into basic blocks whose Nodes hold the statements and control
// expressions in source order. The backward must-analyses of package
// dataflow answer "does this run on every non-panicking path to the
// function exit?" over it.
//
// The builder covers the full statement grammar the simulator uses:
// if/else, for (all three clauses), range, switch, type switch, select,
// labeled statements, break/continue with and without labels, goto,
// fallthrough, return, and defer/go. Calls that provably terminate the
// function abnormally — panic, os.Exit, log.Fatal* and runtime.Goexit —
// end their block with no successor edge. Such blocks are deliberately
// NOT wired to the virtual exit: every-path analyses then ignore
// assertion-failure paths, which is exactly the semantics the sidecar
// invariant checks need (a //ziv:mirror update does not have to run when
// the simulator is already panicking).
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line sequence of nodes.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable across runs:
	// blocks are numbered in creation order, which follows source order).
	Index int
	// Nodes holds the block's statements and control expressions (an
	// if/for/switch condition appears as its bare ast.Expr) in execution
	// order.
	Nodes []ast.Node
	// Succs and Preds are the outgoing and incoming control-flow edges.
	Succs []*Block
	// Preds are the incoming control-flow edges.
	Preds []*Block
}

// Graph is the CFG of one function body.
type Graph struct {
	Blocks []*Block // all blocks, in creation order
	Entry  *Block   // the function's entry block
	// Exit is the virtual exit block (no nodes). Normal returns and
	// falling off the end of the body lead here; panicking paths do not.
	Exit *Block
}

// New builds the CFG of a function body. A nil body (declaration without
// a definition) yields a two-block graph with Entry wired to Exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelScope{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	if b.cur != nil {
		b.edge(b.cur, g.Exit)
	}
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok && target.block != nil {
			b.edge(pg.from, target.block)
		}
	}
	return g
}

// ScanRoots returns the subtrees an analyzer should traverse for one
// CFG node. The builder adds a RangeStmt to its header block whole —
// the per-iteration binding has no smaller AST node — while the body
// statements are also added to their own block. A naive ast.Inspect
// over the header node would therefore visit the body twice and, worse,
// credit body work to the header block even though the loop may run
// zero times. For a RangeStmt the scannable header is Key, Value, and
// X; every other node is its own single root.
func ScanRoots(n ast.Node) []ast.Node {
	rs, ok := n.(*ast.RangeStmt)
	if !ok {
		return []ast.Node{n}
	}
	var roots []ast.Node
	if rs.Key != nil {
		roots = append(roots, rs.Key)
	}
	if rs.Value != nil {
		roots = append(roots, rs.Value)
	}
	return append(roots, rs.X)
}

// labelScope records the jump targets a label or an enclosing
// breakable/continuable statement exposes.
type labelScope struct {
	block       *Block // label target (for goto)
	breakBlock  *Block
	continueBlk *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g   *Graph
	cur *Block // nil while the current position is unreachable

	// breakStack/continueStack track the innermost targets for unlabeled
	// break and continue.
	breakStack    []*Block
	continueStack []*Block
	labels        map[string]*labelScope
	gotos         []pendingGoto
	pendingLabel  string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, starting a fresh block if the
// position is unreachable (dead code still gets analyzed, just with no
// incoming edges).
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.edge(b.cur, b.g.Exit)
		}
		b.cur = nil
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && terminates(call) {
			b.cur = nil // no successor: panicking paths end here
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// Decl, assign, inc/dec, send, defer, go: plain nodes.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	condBlk := b.cur
	after := b.newBlock()

	b.cur = b.newBlock()
	b.edge(condBlk, b.cur)
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, after)
	}

	if s.Else != nil {
		b.cur = b.newBlock()
		b.edge(condBlk, b.cur)
		b.stmt(s.Else)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	} else {
		b.edge(condBlk, after)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	header := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, header)
	}
	b.cur = header
	if s.Cond != nil {
		b.add(s.Cond)
	}
	after := b.newBlock()
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
	}
	contTarget := header
	if post != nil {
		contTarget = post
	}

	label := b.takePendingLabel(after, contTarget)
	if s.Cond != nil {
		b.edge(header, after)
	}
	body := b.newBlock()
	b.edge(header, body)
	b.cur = body
	b.pushLoop(after, contTarget)
	b.stmtList(s.Body.List)
	b.popLoop()
	b.clearLabel(label)
	if b.cur != nil {
		b.edge(b.cur, contTarget)
	}
	if post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(post, header)
	}
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	header := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, header)
	}
	b.cur = header
	b.add(s) // the RangeStmt itself models the per-iteration binding
	after := b.newBlock()
	b.edge(header, after)

	label := b.takePendingLabel(after, header)
	body := b.newBlock()
	b.edge(header, body)
	b.cur = body
	b.pushLoop(after, header)
	b.stmtList(s.Body.List)
	b.popLoop()
	b.clearLabel(label)
	if b.cur != nil {
		b.edge(b.cur, header)
	}
	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	tagBlk := b.cur
	if tagBlk == nil {
		tagBlk = b.newBlock()
		b.cur = tagBlk
	}
	after := b.newBlock()
	label := b.takePendingLabel(after, nil)
	b.caseClauses(s.Body.List, tagBlk, after)
	b.clearLabel(label)
	b.cur = after
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	tagBlk := b.cur
	after := b.newBlock()
	label := b.takePendingLabel(after, nil)
	b.caseClauses(s.Body.List, tagBlk, after)
	b.clearLabel(label)
	b.cur = after
}

// caseClauses wires each case body from the tag block, handling
// fallthrough and the implicit "no case matched" edge.
func (b *builder) caseClauses(clauses []ast.Stmt, tagBlk, after *Block) {
	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		bodies[i] = b.newBlock()
		b.edge(tagBlk, bodies[i])
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok || bodies[i] == nil {
			continue
		}
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.pushBreak(after)
		fallsThrough := false
		for j, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = j == len(cc.Body)-1
				continue
			}
			b.stmt(st)
		}
		b.popBreak()
		if b.cur != nil {
			if fallsThrough && i+1 < len(bodies) && bodies[i+1] != nil {
				b.edge(b.cur, bodies[i+1])
			} else {
				b.edge(b.cur, after)
			}
		}
	}
	if !hasDefault {
		b.edge(tagBlk, after)
	}
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	entry := b.cur
	if entry == nil {
		entry = b.newBlock()
	}
	after := b.newBlock()
	label := b.takePendingLabel(after, nil)
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		body := b.newBlock()
		b.edge(entry, body)
		b.cur = body
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.pushBreak(after)
		b.stmtList(cc.Body)
		b.popBreak()
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.clearLabel(label)
	if len(s.Body.List) == 0 {
		// Empty select blocks forever: no edge to after.
		b.cur = nil
		return
	}
	b.cur = after
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	target := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = target
	sc := b.labels[name]
	if sc == nil {
		sc = &labelScope{}
		b.labels[name] = sc
	}
	sc.block = target
	b.pendingLabel = name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

// takePendingLabel attaches break/continue targets to the label wrapping
// this statement, if any, and returns the label name (or "").
func (b *builder) takePendingLabel(breakBlk, contBlk *Block) string {
	name := b.pendingLabel
	b.pendingLabel = ""
	if name == "" {
		return ""
	}
	sc := b.labels[name]
	sc.breakBlock = breakBlk
	sc.continueBlk = contBlk
	return name
}

func (b *builder) clearLabel(name string) {
	if name == "" {
		return
	}
	if sc, ok := b.labels[name]; ok {
		sc.breakBlock = nil
		sc.continueBlk = nil
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	if b.cur == nil {
		return
	}
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if sc, ok := b.labels[s.Label.Name]; ok && sc.breakBlock != nil {
				b.edge(b.cur, sc.breakBlock)
			}
		} else if n := len(b.breakStack); n > 0 {
			b.edge(b.cur, b.breakStack[n-1])
		}
		b.cur = nil
	case token.CONTINUE:
		if s.Label != nil {
			if sc, ok := b.labels[s.Label.Name]; ok && sc.continueBlk != nil {
				b.edge(b.cur, sc.continueBlk)
			}
		} else if n := len(b.continueStack); n > 0 {
			b.edge(b.cur, b.continueStack[n-1])
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// handled by caseClauses
	}
}

func (b *builder) pushLoop(brk, cont *Block) {
	b.breakStack = append(b.breakStack, brk)
	b.continueStack = append(b.continueStack, cont)
}

func (b *builder) popLoop() {
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.continueStack = b.continueStack[:len(b.continueStack)-1]
}

func (b *builder) pushBreak(brk *Block) {
	b.breakStack = append(b.breakStack, brk)
}

func (b *builder) popBreak() {
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
}

// terminates reports whether a call provably never returns: panic and the
// handful of stdlib never-return functions. Resolution is syntactic
// (identifier names), which is sound for this codebase — the analyzers
// never shadow panic/os/log — and keeps the builder independent of type
// information.
func terminates(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fn.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}
