// Package ctxflow implements the zivconc cancellation analyzer: a
// function that accepts a context.Context promises its caller it can
// be cancelled, so every blocking operation it performs must observe
// that context.
//
// Blocking operations are channel sends, channel receives (including
// range-over-channel), WaitGroup.Wait, time.Sleep, and calls to
// blocker functions. An operation is guarded when it is a
// communication arm of a select that also has a <-ctx.Done() case or
// a default arm; a bare <-ctx.Done() is itself the wait for
// cancellation and never reported.
//
// A blocker is a function that is annotated //ziv:blocking (blocks by
// contract), or that — without taking a ctx itself — performs an
// unguarded blocking operation or transitively calls another blocker.
// Blocker summaries are exported as per-package facts, so a
// ctx-taking function calling an imported blocker is flagged at the
// call site. Calls to functions that take a ctx themselves are never
// flagged: the callee owns its cancellation story and is checked at
// its own definition.
//
// //ziv:blocking goes on the function's doc comment, optionally
// followed by a reason; it takes no arguments, and //ziv:blocking(x)
// is reported as malformed. Annotating a ctx-taking function excuses
// its body but marks it as a blocker for its own callers.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"zivsim/internal/analysis/framework"
)

// Analyzer is the ctxflow analysis.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc: "checks that functions taking a context.Context guard their blocking operations " +
		"(channel ops, WaitGroup.Wait, time.Sleep, calls to blockers) with a select on " +
		"ctx.Done() or declare themselves //ziv:blocking",
	Run: run,
}

// blockersKey is the per-package fact: full names of blocker functions.
const blockersKey = "blockers"

// op is one unguarded blocking operation.
type op struct {
	pos  token.Pos
	desc string
}

// callSite is one resolved outgoing call.
type callSite struct {
	pos token.Pos
	fn  *types.Func
}

type fnInfo struct {
	fn        *types.Func
	annotated bool
	takesCtx  bool
	ops       []op
	calls     []callSite
}

type analyzer struct {
	pass     *framework.Pass
	info     *types.Info
	fns      []*fnInfo
	blockers map[string]bool // this package, by full name
}

func run(pass *framework.Pass) (any, error) {
	a := &analyzer{
		pass:     pass,
		info:     pass.TypesInfo,
		blockers: map[string]bool{},
	}

	for _, fd := range pass.FuncDecls() {
		a.collect(fd)
	}

	// Blocker fixpoint: annotation and unguarded ops seed the set,
	// transitive calls grow it until stable.
	for _, fi := range a.fns {
		if fi.annotated || (!fi.takesCtx && len(fi.ops) > 0) {
			a.blockers[fi.fn.FullName()] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range a.fns {
			if fi.takesCtx || a.blockers[fi.fn.FullName()] {
				continue
			}
			for _, c := range fi.calls {
				if !takesCtx(c.fn) && a.isBlocker(c.fn) {
					a.blockers[fi.fn.FullName()] = true
					changed = true
					break
				}
			}
		}
	}

	for _, fi := range a.fns {
		if !fi.takesCtx || fi.annotated {
			continue
		}
		for _, o := range fi.ops {
			a.pass.Reportf(o.pos,
				"%s ignores ctx cancellation; guard it with a select on ctx.Done() or annotate "+
					"the function with //ziv:blocking", o.desc)
		}
		for _, c := range fi.calls {
			if !takesCtx(c.fn) && a.isBlocker(c.fn) {
				a.pass.Reportf(c.pos,
					"call to blocking function %s ignores ctx cancellation; guard it or annotate "+
						"the caller with //ziv:blocking", c.fn.Name())
			}
		}
	}

	pass.ExportFact(blockersKey, a.blockers)
	return nil, nil
}

// collect gathers one declaration's annotation, signature shape,
// unguarded blocking ops, and outgoing calls.
func (a *analyzer) collect(fd *ast.FuncDecl) {
	fn, _ := a.info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	fi := &fnInfo{fn: fn, takesCtx: takesCtx(fn)}
	fi.annotated = a.blockingDirective(fd)
	a.scanBody(fd.Body, fi)
	a.fns = append(a.fns, fi)
}

// blockingDirective parses //ziv:blocking off the doc comment,
// reporting malformed spellings.
func (a *analyzer) blockingDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := c.Text
		if !strings.HasPrefix(text, "//ziv:blocking") {
			continue
		}
		rest := text[len("//ziv:blocking"):]
		if rest == "" || strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\t") {
			return true
		}
		a.pass.Reportf(c.Pos(),
			"malformed //ziv:blocking directive: no arguments allowed (a reason may follow after a space)")
		return false
	}
	return false
}

// scanBody walks one body, recording unguarded blocking operations and
// resolved calls. Function literals are skipped: they run on their own
// schedule (often a goroutine), not on this function's path.
func (a *analyzer) scanBody(body *ast.BlockStmt, fi *fnInfo) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			guarded := a.selectGuarded(n)
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm != nil && !guarded {
					ast.Inspect(cc.Comm, visit)
				}
				if cc.Comm != nil && guarded {
					// Guarded arms still contain calls worth resolving
					// (a call expression inside a comm arm is evaluated
					// before the select blocks).
					a.scanCallsOnly(cc.Comm, fi)
				}
				for _, s := range cc.Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.SendStmt:
			fi.ops = append(fi.ops, op{pos: n.Arrow, desc: "blocking send on " + types.ExprString(n.Chan)})
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !a.isCtxDone(n.X) {
				fi.ops = append(fi.ops, op{pos: n.OpPos, desc: "blocking receive from " + types.ExprString(n.X)})
			}
			return true
		case *ast.RangeStmt:
			if t := a.info.Types[n.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					fi.ops = append(fi.ops, op{pos: n.For, desc: "blocking range over " + types.ExprString(n.X)})
				}
			}
			return true
		case *ast.CallExpr:
			a.classifyCall(n, fi, true)
			return true
		}
		return true
	}
	ast.Inspect(body, visit)
}

// scanCallsOnly records resolved calls in a subtree without flagging
// channel operations (used for guarded select arms).
func (a *analyzer) scanCallsOnly(n ast.Node, fi *fnInfo) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			a.classifyCall(call, fi, false)
		}
		return true
	})
}

// classifyCall records a call as a known blocking primitive (when ops
// is true) or as an outgoing call for the blocker fixpoint.
func (a *analyzer) classifyCall(call *ast.CallExpr, fi *fnInfo, wantOps bool) {
	fn := framework.CalledFunc(a.info, call)
	if fn == nil {
		return
	}
	if wantOps {
		if fn.FullName() == "time.Sleep" {
			fi.ops = append(fi.ops, op{pos: call.Pos(), desc: "time.Sleep"})
			return
		}
		if fn.Name() == "Wait" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && framework.IsNamed(a.info.Types[sel.X].Type, "sync", "WaitGroup") {
				fi.ops = append(fi.ops, op{pos: call.Pos(), desc: "WaitGroup.Wait"})
				return
			}
		}
	}
	fi.calls = append(fi.calls, callSite{pos: call.Pos(), fn: fn})
}

// selectGuarded reports whether a select has an escape from blocking:
// a default arm or a <-ctx.Done() case.
func (a *analyzer) selectGuarded(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
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
		if un, ok := ast.Unparen(recv).(*ast.UnaryExpr); ok && un.Op == token.ARROW && a.isCtxDone(un.X) {
			return true
		}
	}
	return false
}

// isCtxDone reports whether e is a Done() call on a context.Context.
func (a *analyzer) isCtxDone(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return isContext(a.info.Types[sel.X].Type)
}

func (a *analyzer) isBlocker(fn *types.Func) bool {
	blocks, _ := framework.Fact(a.pass, a.blockers, blockersKey, fn, (*types.Func).FullName)
	return blocks
}

// takesCtx reports whether the function signature has a
// context.Context parameter.
func takesCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContext reports whether t is context.Context. Unlike
// framework.IsNamed it does not look through pointers: a function
// taking a *context.Context does not promise cancellation.
func isContext(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
