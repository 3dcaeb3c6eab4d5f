// Package chandiscipline implements the zivconc channel-ownership
// analyzer. Three disciplines, all rooted in "the owner of a channel
// creates it, sends on it, and closes it":
//
//   - Send-after-close: a forward may-closed analysis over each
//     function body flags sends (and second closes) on a channel that
//     may already be closed on some path. Calls to closer functions —
//     functions that close a channel parameter, recorded as
//     cross-package facts — count as closes at the call site.
//
//   - Close-by-non-owner: closing a channel is allowed for channels
//     the function made itself (make/composite assignment), struct
//     fields, and package-level channels. Closing a channel parameter
//     inside an exported function crosses the ownership boundary —
//     the caller may still be sending — and is reported; unexported
//     helpers may close their parameter (delegated ownership) and
//     contribute a closer fact instead. Closing a local that was
//     obtained from elsewhere (a call result) is reported.
//
//   - Stranded buffered sends: a send loop inside a goroutine on a
//     locally-made buffered channel whose receives can all exit early
//     (every receive is a select case beside another case or default)
//     is reported — once the receiver leaves, the buffer fills and
//     the sender blocks forever.
//
// Deferred closes are excluded from the may-closed flow (they run at
// return, after every send in the body) but still count for ownership
// classification and closer facts.
package chandiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"zivsim/internal/analysis/cfg"
	"zivsim/internal/analysis/dataflow"
	"zivsim/internal/analysis/framework"
)

// Analyzer is the chandiscipline analysis.
var Analyzer = &framework.Analyzer{
	Name: "chandiscipline",
	Doc: "checks channel ownership discipline: no sends or second closes after a may-close, " +
		"no closes of channels the function does not own, and no goroutine send loops on " +
		"buffered channels whose receivers can exit early",
	Run: run,
}

// closersKey is the per-package fact: function full name -> indices of
// channel parameters the function closes on some path (directly or by
// delegating to another closer).
const closersKey = "closers"

// chanID identifies a channel by its root variable and dotted field
// path (indexing collapses to a "[]" marker).
type chanID struct {
	base *types.Var
	path string
}

func (id chanID) name() string {
	if id.path == "" {
		return id.base.Name()
	}
	return id.base.Name() + "." + id.path
}

// maySet is the forward fact: channels that may be closed on some path
// to this point.
type maySet = dataflow.MaySet[chanID]

// eventKind classifies one flow event.
type eventKind int8

const (
	evClose eventKind = iota
	evSend
)

type event struct {
	pos  token.Pos
	kind eventKind
	id   chanID
}

type analyzer struct {
	pass    *framework.Pass
	info    *types.Info
	closers map[string][]int // this package, by function full name

	// Per-function state.
	params map[*types.Var]int // channel parameters of the current decl
	made   map[*types.Var]bool
	events map[*cfg.Block][]event
}

func run(pass *framework.Pass) (any, error) {
	a := &analyzer{
		pass:    pass,
		info:    pass.TypesInfo,
		closers: map[string][]int{},
	}

	// Two rounds so a closer that delegates to a later-declared closer
	// in the same package still picks up the fact.
	for round := 0; round < 2; round++ {
		for _, fd := range pass.FuncDecls() {
			a.collectCloser(fd)
		}
	}
	for _, fd := range pass.FuncDecls() {
		a.analyzeFunc(fd)
	}

	pass.ExportFact(closersKey, a.closers)
	return nil, nil
}

// chanParams maps a decl's channel-typed parameter variables to their
// positional indices.
func (a *analyzer) chanParams(fd *ast.FuncDecl) map[*types.Var]int {
	params := map[*types.Var]int{}
	for i, v := range framework.Params(a.info, fd.Type.Params) {
		if v == nil {
			continue
		}
		if _, isChan := v.Type().Underlying().(*types.Chan); isChan {
			params[v] = i
		}
	}
	return params
}

// collectCloser records the channel parameters fd closes on some path.
func (a *analyzer) collectCloser(fd *ast.FuncDecl) {
	fn, _ := a.info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	params := a.chanParams(fd)
	if len(params) == 0 {
		return
	}
	seen := map[int]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, id := range a.closeTargets(call) {
			if id.path != "" {
				continue
			}
			if i, isParam := params[id.base]; isParam {
				seen[i] = true
			}
		}
		return true
	})
	if len(seen) == 0 {
		delete(a.closers, fn.FullName())
		return
	}
	var idxs []int
	for i := range seen {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	a.closers[fn.FullName()] = idxs
}

// closeTargets resolves the channels a call closes: the argument of the
// close builtin, or the closed parameters of a known closer function.
func (a *analyzer) closeTargets(call *ast.CallExpr) []chanID {
	if framework.BuiltinName(a.info, call) == "close" && len(call.Args) == 1 {
		if cid, ok := a.chainOf(call.Args[0]); ok {
			return []chanID{cid}
		}
		return nil
	}
	fn := framework.CalledFunc(a.info, call)
	if fn == nil {
		return nil
	}
	idxs, ok := framework.Fact(a.pass, a.closers, closersKey, fn, (*types.Func).FullName)
	if !ok {
		return nil
	}
	var ids []chanID
	for _, i := range idxs {
		if i < len(call.Args) {
			if cid, ok := a.chainOf(call.Args[i]); ok {
				ids = append(ids, cid)
			}
		}
	}
	return ids
}

// analyzeFunc runs the three discipline checks over one declaration.
func (a *analyzer) analyzeFunc(fd *ast.FuncDecl) {
	a.params = a.chanParams(fd)
	a.made = collectMade(a.info, fd.Body)
	a.checkOwnership(fd)
	a.flowScope(fd.Body)
	for _, lit := range nestedLits(fd.Body) {
		a.flowScope(lit.Body)
	}
	a.checkBufferedSends(fd)
}

// nestedLits returns every function literal in the body, at any depth;
// each forms its own flow scope.
func nestedLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}

// checkOwnership classifies every lexical close in the declaration.
func (a *analyzer) checkOwnership(fd *ast.FuncDecl) {
	exported := fd.Name.IsExported()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || framework.BuiltinName(a.info, call) != "close" || len(call.Args) != 1 {
			return true
		}
		cid, ok := a.chainOf(call.Args[0])
		if !ok || cid.path != "" {
			// Field chains (s.done) stay with their struct's owner.
			return true
		}
		switch {
		case framework.IsPkgLevel(cid.base):
		case hasMade(a.made, cid.base):
		case hasParam(a.params, cid.base):
			if exported {
				a.pass.Reportf(call.Pos(),
					"close of channel parameter %s in exported function %s: the caller owns the channel",
					cid.base.Name(), fd.Name.Name)
			}
			// Unexported: delegated ownership, recorded as a closer fact.
		default:
			a.pass.Reportf(call.Pos(),
				"close of channel %s that this function did not create", cid.base.Name())
		}
		return true
	})
}

func hasParam(params map[*types.Var]int, v *types.Var) bool {
	_, ok := params[v]
	return ok
}

// hasMade distinguishes "made locally" (key present) from the map's
// buffered-capacity value.
func hasMade(made map[*types.Var]bool, v *types.Var) bool {
	_, ok := made[v]
	return ok
}

// flowScope runs the forward may-closed analysis over one scope (a
// declaration body or a function literal body) and reports sends and
// closes on may-closed channels. Literal scopes start from an empty
// set: the spawn-site state is not assumed.
func (a *analyzer) flowScope(body *ast.BlockStmt) {
	g := cfg.New(body)
	a.events = map[*cfg.Block][]event{}
	any := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			for _, root := range cfg.ScanRoots(n) {
				a.events[b] = append(a.events[b], a.scanEvents(root)...)
			}
		}
		if len(a.events[b]) > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	ins := dataflow.Forward[maySet](g, dataflow.MayLattice[chanID]{}, maySet{}, func(b *cfg.Block, in maySet) maySet {
		return a.applyEvents(b, in, false)
	})
	for _, b := range g.Blocks {
		a.applyEvents(b, ins[b.Index], true)
	}
}

// applyEvents replays a block's events over its entry fact, optionally
// reporting; it never mutates in.
func (a *analyzer) applyEvents(b *cfg.Block, in maySet, report bool) maySet {
	evs := a.events[b]
	if len(evs) == 0 {
		return in
	}
	cur := make(maySet, len(in)+len(evs))
	for k := range in {
		cur[k] = true
	}
	for _, ev := range evs {
		switch ev.kind {
		case evClose:
			if cur[ev.id] && report {
				a.pass.Reportf(ev.pos, "close of channel %s that may already be closed", ev.id.name())
			}
			cur[ev.id] = true
		case evSend:
			if cur[ev.id] && report {
				a.pass.Reportf(ev.pos, "send on channel %s that may already be closed", ev.id.name())
			}
		}
	}
	return cur
}

// scanEvents collects one node's close/send events in source order,
// excluding nested literals (separate scopes) and deferred calls (they
// run at return, after every send in this body).
func (a *analyzer) scanEvents(root ast.Node) []event {
	var evs []event
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if cid, ok := a.chainOf(n.Chan); ok {
				evs = append(evs, event{pos: n.Arrow, kind: evSend, id: cid})
			}
		case *ast.CallExpr:
			for _, cid := range a.closeTargets(n) {
				evs = append(evs, event{pos: n.Pos(), kind: evClose, id: cid})
			}
		}
		return true
	})
	return evs
}

// checkBufferedSends flags goroutine send loops on locally-made
// buffered channels whose receives can all exit early.
func (a *analyzer) checkBufferedSends(fd *ast.FuncDecl) {
	buffered := map[*types.Var]bool{}
	for v, isBuf := range a.made {
		if isBuf {
			buffered[v] = true
		}
	}
	if len(buffered) == 0 {
		return
	}

	type recvShape struct{ draining, early int }
	recvs := map[*types.Var]*recvShape{}
	shape := func(v *types.Var) *recvShape {
		s := recvs[v]
		if s == nil {
			s = &recvShape{}
			recvs[v] = s
		}
		return s
	}
	// Select comm clauses whose select has an escape hatch (another
	// case or a default) are early-exit receives; everything else
	// drains.
	earlyComms := map[ast.Stmt]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		escape := len(sel.Body.List) > 1
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				escape = true // default clause
			}
		}
		if escape {
			for _, cl := range sel.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					earlyComms[cc.Comm] = true
				}
			}
		}
		return true
	})
	var visit func(n ast.Node, comm ast.Stmt) bool
	recvExpr := func(e ast.Expr, comm ast.Stmt) {
		un, ok := ast.Unparen(e).(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			return
		}
		if cid, ok := a.chainOf(un.X); ok && cid.path == "" && buffered[cid.base] {
			if comm != nil && earlyComms[comm] {
				shape(cid.base).early++
			} else {
				shape(cid.base).draining++
			}
		}
	}
	visit = func(n ast.Node, comm ast.Stmt) bool {
		switch n := n.(type) {
		case *ast.CommClause:
			if n.Comm != nil {
				ast.Inspect(n.Comm, func(m ast.Node) bool { return visit(m, n.Comm) })
			}
			for _, s := range n.Body {
				ast.Inspect(s, func(m ast.Node) bool { return visit(m, comm) })
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				recvExpr(n, comm)
			}
		case *ast.RangeStmt:
			if cid, ok := a.chainOf(n.X); ok && cid.path == "" && buffered[cid.base] {
				if _, isChan := exprType(a.info, n.X).Underlying().(*types.Chan); isChan {
					shape(cid.base).draining++
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool { return visit(n, nil) })

	// Candidate sends: inside a loop inside a goroutine literal, not
	// themselves select-guarded.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		var inLoop func(n ast.Node, loops int) bool
		inLoop = func(n ast.Node, loops int) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				ast.Inspect(n.Body, func(m ast.Node) bool { return inLoop(m, loops+1) })
				return false
			case *ast.RangeStmt:
				ast.Inspect(n.Body, func(m ast.Node) bool { return inLoop(m, loops+1) })
				return false
			case *ast.CommClause:
				// A select-guarded send gives the sender its own exit.
				for _, s := range n.Body {
					ast.Inspect(s, func(m ast.Node) bool { return inLoop(m, loops) })
				}
				return false
			case *ast.SendStmt:
				if loops == 0 {
					return true
				}
				cid, ok := a.chainOf(n.Chan)
				if !ok || cid.path != "" || !buffered[cid.base] {
					return true
				}
				s := recvs[cid.base]
				if s != nil && s.draining == 0 && s.early > 0 {
					a.pass.Reportf(n.Arrow,
						"goroutine loops sending on buffered channel %s but every receive can exit early; "+
							"once the receiver leaves, the buffer fills and the sender blocks forever",
						cid.base.Name())
				}
			}
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool { return inLoop(m, 0) })
		return false
	})
}

// collectMade maps local channel variables to whether their make call
// is buffered. A variable later reassigned from a non-make source is
// dropped (ownership becomes unclear).
func collectMade(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	made := map[*types.Var]bool{}
	poisoned := map[*types.Var]bool{}
	record := func(nameIdent *ast.Ident, rhs ast.Expr) {
		v := framework.VarOf(info, nameIdent)
		if v == nil {
			return
		}
		if _, isChan := v.Type().Underlying().(*types.Chan); !isChan {
			return
		}
		if buf, isMake := makeChan(info, rhs); isMake {
			if !poisoned[v] {
				made[v] = made[v] || buf
			}
		} else {
			poisoned[v] = true
			delete(made, v)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					record(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					record(name, n.Values[i])
				}
			}
		}
		return true
	})
	return made
}

// makeChan reports whether e is make(chan ...) and whether the buffer
// capacity is (possibly) nonzero.
func makeChan(info *types.Info, e ast.Expr) (buffered, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return false, false
	}
	if framework.BuiltinName(info, call) != "make" || len(call.Args) == 0 {
		return false, false
	}
	if tv, okT := info.Types[call.Args[0]]; !okT || tv.Type == nil {
		return false, false
	} else if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false, false
	}
	if len(call.Args) < 2 {
		return false, true
	}
	if tv, okT := info.Types[call.Args[1]]; okT && tv.Value != nil {
		if v, exact := constantInt(tv.Value.ExactString()); exact && v == 0 {
			return false, true
		}
	}
	return true, true
}

func constantInt(s string) (int64, bool) {
	var v int64
	neg := false
	for i, c := range s {
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// chainOf resolves a channel expression to its root variable and
// dotted field path. Unlike framework.Chain it does not look through
// &x: no channel operand is an address.
func (a *analyzer) chainOf(e ast.Expr) (chanID, bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return a.chainOf(x.X)
	case *ast.StarExpr:
		return a.chainOf(x.X)
	case *ast.IndexExpr:
		cid, ok := a.chainOf(x.X)
		if !ok {
			return chanID{}, false
		}
		cid.path += "[]"
		return cid, true
	case *ast.SelectorExpr:
		if id, isIdent := ast.Unparen(x.X).(*ast.Ident); isIdent {
			if _, isPkg := a.info.Uses[id].(*types.PkgName); isPkg {
				if v, isVar := a.info.Uses[x.Sel].(*types.Var); isVar {
					return chanID{base: v}, true
				}
				return chanID{}, false
			}
		}
		cid, ok := a.chainOf(x.X)
		if !ok {
			return chanID{}, false
		}
		cid.path = framework.JoinPath(cid.path, x.Sel.Name)
		return cid, true
	case *ast.Ident:
		if v := framework.VarOf(a.info, x); v != nil {
			return chanID{base: v}, true
		}
	}
	return chanID{}, false
}

// exprType is e's type, or the invalid type (never nil), so Underlying
// is always safe to call on the result.
func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}
