// Package goleak implements the zivconc goroutine-join analyzer: every
// `go` statement in non-test code must have a provable join path, so a
// drained sweep or a shut-down server does not strand workers.
//
// Accepted join evidence, checked with the backward must-reach solver
// over the goroutine body's CFG (a signal only counts when it fires on
// every non-panicking path, including via defer):
//
//   - WaitGroup pairing: the body calls wg.Done on every path and the
//     spawning function reaches wg.Wait on the same WaitGroup. A Done
//     whose Wait exists but whose Add is nowhere in the spawner is
//     reported separately — Add must precede the go statement.
//   - Result channel: the body sends on or closes a channel that the
//     spawning function receives from (<-ch, range, or a select case).
//   - Context cancellation: the body's loops observe <-ctx.Done() in a
//     select case that exits the loop.
//
// A body containing an infinite loop with no break, no return, and no
// ctx.Done case can never be joined and is reported regardless of
// other signals. Deliberate process-lifetime goroutines (a signal
// watcher) are waived with //ziv:ignore(goleak) and a reason.
//
// Join signals compose across calls: every function exports a summary
// of the WaitGroup/channel parameters and receiver fields it signals
// on every path, so `go worker(&wg)` with a worker that defers
// wg.Done counts as WaitGroup evidence — including across packages.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"zivsim/internal/analysis/cfg"
	"zivsim/internal/analysis/dataflow"
	"zivsim/internal/analysis/framework"
)

// Analyzer is the goleak analysis.
var Analyzer = &framework.Analyzer{
	Name: "goleak",
	Doc: "checks that every go statement has a provable join path — WaitGroup Add/Done/Wait " +
		"pairing, a result channel the spawner receives, or ctx.Done-guarded loops — " +
		"using the backward must-reach solver and cross-package signal summaries",
	Run: run,
}

// summariesKey is the per-package fact: function full name -> Summary.
const summariesKey = "summaries"

// Summary describes the join signals a function provides on every
// non-panicking path, in terms of its own parameters and receiver
// fields, so spawn sites can translate them to caller-side roots.
type Summary struct {
	DoneParams   []int    // parameter indices (by position) of WaitGroups it Dones
	SignalParams []int    // parameter indices of channels it sends on or closes
	DoneFields   []string // receiver field paths of WaitGroups it Dones
	SignalFields []string // receiver field paths of channels it sends on or closes
	CtxGuarded   bool     // its loops observe ctx.Done
	BadLoop      bool     // contains an unguarded infinite loop
}

func (s Summary) empty() bool {
	return len(s.DoneParams) == 0 && len(s.SignalParams) == 0 &&
		len(s.DoneFields) == 0 && len(s.SignalFields) == 0 && !s.CtxGuarded && !s.BadLoop
}

// sigKind classifies one join signal.
type sigKind int8

const (
	sigDone sigKind = iota // wg.Done
	sigChan                // channel send or close
)

// sigKey identifies a signal: kind plus the root variable and dotted
// field path of the WaitGroup or channel.
type sigKey struct {
	kind sigKind
	base *types.Var
	path string
}

// signals is the evidence extracted from one goroutine body (or one
// named function, for summaries).
type signals struct {
	keys []sigKey // must-fire Done/send/close signals
	ctx  bool     // loops observe ctx.Done
	bad  bool     // unguarded infinite loop
}

// mustSet is the backward dataflow fact: signals firing on every path
// from a point to the exit.
type mustSet = dataflow.MustSet[sigKey]

type analyzer struct {
	pass      *framework.Pass
	info      *types.Info
	summaries map[string]Summary // this package, by function full name

	// Per-solve state: the events of the body being solved.
	events map[*cfg.Block][][]sigKey
}

func run(pass *framework.Pass) (any, error) {
	a := &analyzer{
		pass:      pass,
		info:      pass.TypesInfo,
		summaries: map[string]Summary{},
	}

	// Two rounds: summaries may reference same-package helpers declared
	// later in the file order (helper calls count as signal events).
	for round := 0; round < 2; round++ {
		for _, fd := range pass.FuncDecls() {
			a.summarize(fd)
		}
	}
	for _, fd := range pass.FuncDecls() {
		a.walkScope(fd.Body)
	}

	pass.ExportFact(summariesKey, a.summaries)
	return nil, nil
}

// summarize computes and stores a function's signal summary.
func (a *analyzer) summarize(fd *ast.FuncDecl) {
	fn, _ := a.info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	sig := a.bodySignals(fd.Body)

	params := map[*types.Var]int{}
	for i, v := range framework.Params(a.info, fd.Type.Params) {
		if v != nil {
			params[v] = i
		}
	}
	var recv *types.Var
	for _, v := range framework.Params(a.info, fd.Recv) {
		if v != nil {
			recv = v
		}
	}

	s := Summary{CtxGuarded: sig.ctx, BadLoop: sig.bad}
	for _, k := range sig.keys {
		switch {
		case k.path == "" && paramAt(params, k.base) >= 0:
			if k.kind == sigDone {
				s.DoneParams = append(s.DoneParams, params[k.base])
			} else {
				s.SignalParams = append(s.SignalParams, params[k.base])
			}
		case recv != nil && k.base == recv && k.path != "":
			if k.kind == sigDone {
				s.DoneFields = append(s.DoneFields, k.path)
			} else {
				s.SignalFields = append(s.SignalFields, k.path)
			}
		}
	}
	if !s.empty() {
		a.summaries[fn.FullName()] = s
	} else {
		delete(a.summaries, fn.FullName())
	}
}

func paramAt(params map[*types.Var]int, v *types.Var) int {
	if v == nil {
		return -1
	}
	if i, ok := params[v]; ok {
		return i
	}
	return -1
}

// walkScope visits one function scope, dispatching each go statement
// to its innermost enclosing body; nested literals form their own
// scopes.
func (a *analyzer) walkScope(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.walkScope(n.Body)
			return false
		case *ast.GoStmt:
			a.checkGo(body, n)
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				a.walkScope(lit.Body)
				for _, arg := range n.Call.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if l, ok := m.(*ast.FuncLit); ok {
							a.walkScope(l.Body)
							return false
						}
						return true
					})
				}
				return false
			}
		}
		return true
	})
}

// checkGo verifies one go statement against the join evidence visible
// in its spawning scope.
func (a *analyzer) checkGo(scope *ast.BlockStmt, g *ast.GoStmt) {
	var sig signals
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		sig = a.bodySignals(lit.Body)
	} else {
		sig = a.callSignals(g.Call)
	}

	if sig.bad {
		a.pass.Reportf(g.Pos(),
			"goroutine loops forever with no ctx.Done case, break, or return: it can never be joined")
		return
	}
	if sig.ctx {
		return
	}

	for _, k := range sig.keys {
		name := sigName(k)
		switch k.kind {
		case sigDone:
			if !hasWaitGroupCall(a, scope, k, "Wait") {
				continue
			}
			if !hasWaitGroupCall(a, scope, k, "Add") {
				a.pass.Reportf(g.Pos(),
					"goroutine joins via %s.Wait but the spawner never calls %s.Add; Add must precede the go statement",
					name, name)
			}
			return
		case sigChan:
			if hasReceive(a, scope, k) {
				return
			}
		}
	}
	a.pass.Reportf(g.Pos(),
		"goroutine has no provable join path (WaitGroup Add/Done/Wait pairing, a channel send/close "+
			"the spawner receives, or ctx.Done-guarded loops); annotate process-lifetime goroutines "+
			"with //ziv:ignore(goleak) and a reason")
}

func sigName(k sigKey) string {
	if k.path == "" {
		return k.base.Name()
	}
	return k.base.Name() + "." + k.path
}

// callSignals translates a named callee's summary to spawn-site roots.
func (a *analyzer) callSignals(call *ast.CallExpr) signals {
	fn := framework.CalledFunc(a.info, call)
	if fn == nil {
		return signals{}
	}
	s, ok := framework.Fact(a.pass, a.summaries, summariesKey, fn, (*types.Func).FullName)
	if !ok {
		return signals{}
	}
	sig := signals{ctx: s.CtxGuarded, bad: s.BadLoop}
	addArg := func(i int, kind sigKind) {
		if i >= len(call.Args) {
			return
		}
		if base, path, ok := framework.Chain(a.info, call.Args[i]); ok {
			sig.keys = append(sig.keys, sigKey{kind: kind, base: base, path: path})
		}
	}
	for _, i := range s.DoneParams {
		addArg(i, sigDone)
	}
	for _, i := range s.SignalParams {
		addArg(i, sigChan)
	}
	if len(s.DoneFields) > 0 || len(s.SignalFields) > 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if base, prefix, ok := framework.Chain(a.info, sel.X); ok {
				for _, f := range s.DoneFields {
					sig.keys = append(sig.keys, sigKey{kind: sigDone, base: base, path: framework.JoinPath(prefix, f)})
				}
				for _, f := range s.SignalFields {
					sig.keys = append(sig.keys, sigKey{kind: sigChan, base: base, path: framework.JoinPath(prefix, f)})
				}
			}
		}
	}
	return sig
}

// bodySignals extracts the join signals of one body: the must-fire
// Done/send/close events (backward solver) plus the loop/ctx shape.
func (a *analyzer) bodySignals(body *ast.BlockStmt) signals {
	g := cfg.New(body)
	a.events = map[*cfg.Block][][]sigKey{}
	candidates := map[sigKey]bool{}
	for _, b := range g.Blocks {
		evs := make([][]sigKey, len(b.Nodes))
		for i, n := range b.Nodes {
			for _, root := range cfg.ScanRoots(n) {
				evs[i] = append(evs[i], a.scanSignals(root)...)
			}
			for _, k := range evs[i] {
				candidates[k] = true
			}
		}
		a.events[b] = evs
	}

	ins, _ := dataflow.Backward[mustSet](g, dataflow.MustLattice[sigKey]{},
		mustSet{M: map[sigKey]bool{}}, a.signalTransfer)
	entry := ins[g.Entry.Index]

	var sig signals
	for k := range candidates {
		if entry.Top || entry.M[k] {
			sig.keys = append(sig.keys, k)
		}
	}
	// Deterministic order for reporting.
	sort.SliceStable(sig.keys, func(i, j int) bool {
		x, y := sig.keys[i], sig.keys[j]
		return sigName(x) < sigName(y) || (sigName(x) == sigName(y) && x.kind < y.kind)
	})

	sig.ctx, sig.bad = loopShape(a, body)
	return sig
}

// signalTransfer is the backward transfer function: a block adds its
// own events to the must-set flowing in from its end. A Top out-fact
// (every path from the block's end panics) stays Top, so a signal on a
// panicking branch never displaces one the other paths reach.
func (a *analyzer) signalTransfer(b *cfg.Block, out mustSet) mustSet {
	if out.Top {
		return out
	}
	evs := a.events[b]
	var all []sigKey
	for _, nodeEvs := range evs {
		all = append(all, nodeEvs...)
	}
	if len(all) == 0 {
		return out
	}
	return out.With(all...)
}

// scanSignals collects the Done/send/close events of one node subtree,
// including deferred calls (a reached defer always fires) and calls to
// functions whose summaries signal on a parameter or receiver field.
// Nested function literals are separate goroutine candidates and do
// not credit this body.
func (a *analyzer) scanSignals(root ast.Node) []sigKey {
	var keys []sigKey
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// A nested goroutine's work does not join this one.
			return false
		case *ast.SendStmt:
			if base, path, ok := framework.Chain(a.info, n.Chan); ok {
				keys = append(keys, sigKey{kind: sigChan, base: base, path: path})
			}
			return true
		case *ast.CallExpr:
			keys = append(keys, a.callEvents(n)...)
			return true
		}
		return true
	}
	ast.Inspect(root, visit)
	return keys
}

// callEvents classifies one call: close(ch), wg.Done(), or a call to a
// summarized signaling function.
func (a *analyzer) callEvents(call *ast.CallExpr) []sigKey {
	if framework.BuiltinName(a.info, call) == "close" && len(call.Args) == 1 {
		if base, path, ok := framework.Chain(a.info, call.Args[0]); ok {
			return []sigKey{{kind: sigChan, base: base, path: path}}
		}
		return nil
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
		if framework.IsNamed(a.info.Types[sel.X].Type, "sync", "WaitGroup") {
			if base, path, ok := framework.Chain(a.info, sel.X); ok {
				return []sigKey{{kind: sigDone, base: base, path: path}}
			}
			return nil
		}
	}
	return a.callSignals(call).keys
}

// loopShape inspects a body's loops: ctx is true when at least one
// loop observes ctx.Done in an exiting select case; bad is true when
// some `for {}` loop has no ctx case, no break, and no return.
func loopShape(a *analyzer, body *ast.BlockStmt) (ctx, bad bool) {
	var inspectLoops func(n ast.Node) bool
	inspectLoops = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			guarded := loopObservesCtxDone(a, n.Body)
			if guarded {
				ctx = true
			} else if n.Cond == nil && !loopCanExit(n.Body) {
				bad = true
			}
		case *ast.RangeStmt:
			if loopObservesCtxDone(a, n.Body) {
				ctx = true
			}
		}
		return true
	}
	ast.Inspect(body, inspectLoops)
	return ctx, bad
}

// loopObservesCtxDone reports whether the loop body has a select case
// receiving from a context.Context's Done channel whose body exits.
func loopObservesCtxDone(a *analyzer, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		cc, ok := n.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			return true
		}
		var recv ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				recv = c.Rhs[0]
			}
		}
		un, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			return true
		}
		call, ok := ast.Unparen(un.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" || !framework.IsNamed(a.info.Types[sel.X].Type, "context", "Context") {
			return true
		}
		if clauseExits(cc) {
			found = true
		}
		return true
	})
	return found
}

func clauseExits(cc *ast.CommClause) bool {
	exits := false
	for _, s := range cc.Body {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exits = true
			case *ast.BranchStmt:
				if n.Tok == token.BREAK {
					exits = true
				}
			}
			return true
		})
	}
	return exits
}

func loopCanExit(body *ast.BlockStmt) bool {
	can := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			can = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				can = true
			}
		}
		return true
	})
	return can
}

// hasWaitGroupCall reports whether the scope lexically reaches
// base.path.<method>() on the same WaitGroup root (nested literals
// included: the Wait may sit in a companion goroutine that signals a
// channel the scope receives).
func hasWaitGroupCall(a *analyzer, scope *ast.BlockStmt, k sigKey, method string) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method || !framework.IsNamed(a.info.Types[sel.X].Type, "sync", "WaitGroup") {
			return true
		}
		if base, path, ok := framework.Chain(a.info, sel.X); ok && base == k.base && path == k.path {
			found = true
		}
		return true
	})
	return found
}

// hasReceive reports whether the scope receives from the channel:
// <-ch, range ch, or a select case (whose comm is also a <-ch).
func hasReceive(a *analyzer, scope *ast.BlockStmt, k sigKey) bool {
	found := false
	match := func(e ast.Expr) bool {
		base, path, ok := framework.Chain(a.info, e)
		return ok && base == k.base && path == k.path
	}
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && match(n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if _, isChan := a.info.Types[n.X].Type.Underlying().(*types.Chan); isChan && match(n.X) {
				found = true
			}
		}
		return true
	})
	return found
}
