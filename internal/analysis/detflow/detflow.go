// Package detflow is an interprocedural taint analysis for determinism:
// it tracks values whose content depends on a nondeterministic source and
// reports when one reaches a determinism-sensitive sink.
//
// Sources:
//   - ranging over a map taints the key and value variables with Order
//     (iteration order is randomized per run);
//   - time.Now / time.Since and the global math/rand functions taint
//     their results with Value;
//   - comparing two pointers for identity (p == q with no nil operand)
//     taints the result with Value — addresses differ across runs.
//
// Sinks:
//   - writes to a field of a *Stats struct (any named type whose name
//     ends in "Stats");
//   - writes to a field of a *Sample struct (interval-sample records in
//     internal/obs) — observability artifacts must replay byte-stable;
//   - arguments of the internal/obs Write* exporters (Chrome trace,
//     NDJSON, interval CSV) — trace files are replay artifacts, so only
//     cycle-domain data may reach them;
//   - arguments of the internal/telemetry Write* exporters (metrics
//     exposition, sweep trace, run ledger) — telemetry artifacts carry
//     wall-clock data only via injected clocks, never raw time.Now;
//   - formatted output (fmt.Print*/Fprint*) — table and golden report
//     paths must be byte-stable;
//   - cryptographic digests (sha256.Sum256, hash.Write) — the .zivcache
//     result key must be a pure function of the configuration;
//   - values returned from victim-selection methods (function name
//     contains "Victim") — replacement decisions must replay exactly.
//
// Kills: sorting a slice (sort.Slice, sort.Strings, slices.Sort, ...)
// clears its Order taint — the collect-then-sort idiom is the sanctioned
// way to iterate a map deterministically. Accumulating into an integer
// with += or |= also drops Order: integer addition and bitwise-or are
// commutative and associative, so the traversal order cannot show in the
// sum. Float and string accumulation keeps the taint (float addition is
// not associative; string concatenation is not commutative).
//
// The analysis is interprocedural: every function is summarized
// bottom-up (parameters are tracked as symbolic taint bits), summaries
// are exported as framework facts per package, and packages are analyzed
// in dependency order, so taint introduced in internal/policy is caught
// when it reaches a Stats write in internal/core or a table in the
// harness. Within a package, functions are summarized in file order;
// calls to not-yet-summarized functions (including recursion) fall back
// to the conservative default: all argument taint flows to the result.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"zivsim/internal/analysis/cfg"
	"zivsim/internal/analysis/dataflow"
	"zivsim/internal/analysis/framework"
)

// Analyzer is the detflow analysis.
var Analyzer = &framework.Analyzer{
	Name: "detflow",
	Doc:  "taint analysis: nondeterministic values must not reach stats, output, victim choice or cache keys",
	Run:  run,
}

// summariesKey is the fact key under which each package's function
// summaries are published.
const summariesKey = "summaries"

// sortKills maps sorting functions (by full name) to the argument index
// they order. Calling one clears the Order bit of that argument.
var sortKills = map[string]int{
	"sort.Slice":            0,
	"sort.SliceStable":      0,
	"sort.Sort":             0,
	"sort.Stable":           0,
	"sort.Strings":          0,
	"sort.Ints":             0,
	"sort.Float64s":         0,
	"slices.Sort":           0,
	"slices.SortFunc":       0,
	"slices.SortStableFunc": 0,
}

// outputSinks are fmt functions that emit text; Sprintf-style functions
// instead propagate taint to their result.
var outputSinks = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
}

// digestSinks feed the persistent-result cache key.
var digestSinks = map[string]bool{
	"crypto/sha256.Sum256": true,
	"crypto/sha1.Sum":      true,
	"crypto/md5.Sum":       true,
}

type analyzer struct {
	pass *framework.Pass
	info *types.Info
	// local maps FullName -> summary for functions of this package that
	// are already summarized.
	local map[string]dataflow.FnSummary

	// Per-function state.
	params map[*types.Var]int // param object -> index (receiver = 0)
	cur    dataflow.FnSummary
	curFn  *types.Func
	// reported dedups sink reports within one function walk.
	reported map[token.Pos]bool
}

func run(pass *framework.Pass) (any, error) {
	a := &analyzer{
		pass:  pass,
		info:  pass.TypesInfo,
		local: map[string]dataflow.FnSummary{},
	}
	for _, fd := range pass.FuncDecls() {
		a.analyzeFunc(fd)
	}
	pass.ExportFact(summariesKey, a.local)
	return nil, nil
}

// analyzeFunc solves the taint fixpoint for one function, then replays
// the facts over every block once to report sink violations and build
// the function's summary.
func (a *analyzer) analyzeFunc(fd *ast.FuncDecl) {
	fn, _ := a.info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	a.curFn = fn
	a.cur = dataflow.FnSummary{}
	a.params = map[*types.Var]int{}
	a.reported = map[token.Pos]bool{}

	entry := dataflow.Taint{}
	for i, v := range append(framework.Params(a.info, fd.Recv), framework.Params(a.info, fd.Type.Params)...) {
		if v != nil {
			a.params[v] = i
			entry[dataflow.TaintKey{Var: v}] = dataflow.ParamBit(i)
		}
	}

	g := cfg.New(fd.Body)
	ins := dataflow.Forward[dataflow.Taint](g, dataflow.TaintLattice{}, entry,
		func(b *cfg.Block, in dataflow.Taint) dataflow.Taint {
			return a.interpBlock(b, in, false)
		})
	for _, b := range g.Blocks {
		a.interpBlock(b, ins[b.Index], true)
	}
	a.local[fn.FullName()] = a.cur
}

// interpBlock applies every node of b to env. With report set it also
// emits sink diagnostics and accumulates the current function's summary;
// the fixpoint solver calls it with report off, so the transfer stays
// pure.
func (a *analyzer) interpBlock(b *cfg.Block, in dataflow.Taint, report bool) dataflow.Taint {
	env := in.Clone()
	if env == nil {
		env = dataflow.Taint{}
	}
	for _, n := range b.Nodes {
		env = a.interpNode(n, env, report)
	}
	return env
}

func (a *analyzer) interpNode(n ast.Node, env dataflow.Taint, report bool) dataflow.Taint {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(n, env, report)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var m dataflow.Mask
					if i < len(vs.Values) {
						m = a.exprTaint(vs.Values[i], env, report)
					} else if len(vs.Values) == 1 {
						m = a.exprTaint(vs.Values[0], env, report)
					}
					a.setVar(env, name, m)
				}
			}
		}
	case *ast.RangeStmt:
		m := a.exprTaint(n.X, env, report)
		if isMapType(a.info, n.X) {
			m |= dataflow.Order
		}
		if id, ok := n.Key.(*ast.Ident); ok {
			a.setVar(env, id, m)
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			a.setVar(env, id, m)
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			m := a.exprTaint(res, env, report)
			if report {
				if whole, fields, ok := a.resultFields(res, env); ok && len(n.Results) == 1 {
					// Field-resolvable struct result: record the whole-value
					// cell and each field separately so callers can keep one
					// nondeterministic field from tainting its siblings.
					a.cur.Return |= whole
					if a.cur.ReturnFields == nil {
						a.cur.ReturnFields = map[string]dataflow.Mask{}
					}
					for f, fm := range fields {
						a.cur.ReturnFields[f] |= fm
					}
				} else {
					a.cur.Return |= m
				}
				if strings.Contains(a.curFn.Name(), "Victim") {
					a.sink(res.Pos(), m, "victim selection", report)
				}
			}
		}
	case *ast.ExprStmt:
		a.exprTaint(n.X, env, report)
	case *ast.GoStmt:
		a.exprTaint(n.Call, env, report)
	case *ast.DeferStmt:
		a.exprTaint(n.Call, env, report)
	case *ast.SendStmt:
		a.exprTaint(n.Value, env, report)
	case *ast.IncDecStmt:
		// x++ preserves x's taint.
	case ast.Expr:
		// Bare condition expressions (if/for/switch headers): evaluate
		// for call side effects (kills, sinks).
		a.exprTaint(n, env, report)
	}
	return env
}

// assign handles = and op= statements, including the commutative-
// accumulation exemption.
func (a *analyzer) assign(as *ast.AssignStmt, env dataflow.Taint, report bool) {
	// Tuple assignment from one call: every lhs gets the call's taint.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		m := a.exprTaint(as.Rhs[0], env, report)
		for _, lhs := range as.Lhs {
			a.store(lhs, m, env, report)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		m := a.exprTaint(as.Rhs[i], env, report)
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			if a.storeFieldwise(lhs, as.Rhs[i], env) {
				break
			}
			a.store(lhs, m, env, report)
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN:
			if isIntegerExpr(a.info, lhs) {
				// Commutative integer accumulation: traversal order cannot
				// affect the final sum, so Order is dropped.
				m &^= dataflow.Order
			}
			a.store(lhs, m|a.taintOf(lhs, env), env, report)
		default: // -=, *=, /=, ...: plain propagation
			a.store(lhs, m|a.taintOf(lhs, env), env, report)
		}
	}
}

// store writes taint m to an assignment target. Identifier targets
// update the environment; a field write base.F = x updates only the
// {base, F} cell. Fields of *Stats and *Sample structs are additionally
// determinism sinks (golden tables read the former, observability
// artifacts the latter).
func (a *analyzer) store(lhs ast.Expr, m dataflow.Mask, env dataflow.Taint, report bool) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		a.setVar(env, lhs, m)
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if v := framework.VarOf(a.info, id); v != nil {
				k := dataflow.TaintKey{Var: v, Field: lhs.Sel.Name}
				if m == 0 {
					delete(env, k)
				} else {
					env[k] = m
				}
			}
		}
		if !report {
			return
		}
		switch {
		case isFieldOfSuffix(a.info, lhs, "Stats"):
			a.sink(lhs.Pos(), m, "a Stats field", report)
		case isFieldOfSuffix(a.info, lhs, "Sample"):
			a.sink(lhs.Pos(), m, "an interval-sample counter", report)
		}
	}
}

// storeFieldwise handles assignments whose right-hand side has per-field
// taint — a struct composite literal, a call with a field-granular
// summary, or a plain struct copy — by assigning cells field by field
// instead of joining everything into the whole-value cell. Reports were
// already handled by the caller's exprTaint pass.
func (a *analyzer) storeFieldwise(lhs, rhs ast.Expr, env dataflow.Taint) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	v := framework.VarOf(a.info, id)
	if v == nil {
		return false
	}
	var whole dataflow.Mask
	var fields map[string]dataflow.Mask
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		whole, fields, ok = a.litFields(rhs, env)
	case *ast.CallExpr:
		whole, fields, ok = a.callFieldTaints(rhs, env)
	case *ast.Ident:
		rv := framework.VarOf(a.info, rhs)
		if rv == nil {
			return false
		}
		fields = map[string]dataflow.Mask{}
		for k, km := range env {
			if k.Var != rv {
				continue
			}
			if k.Field == "" {
				whole = km
			} else {
				fields[k.Field] = km
			}
		}
		ok = true
	default:
		return false
	}
	if !ok {
		return false
	}
	env.ClearVar(v)
	if whole != 0 {
		env[dataflow.TaintKey{Var: v}] = whole
	}
	for f, fm := range fields {
		if fm != 0 {
			env[dataflow.TaintKey{Var: v, Field: f}] = fm
		}
	}
	return true
}

// litFields resolves a struct composite literal to per-field taints.
func (a *analyzer) litFields(lit *ast.CompositeLit, env dataflow.Taint) (dataflow.Mask, map[string]dataflow.Mask, bool) {
	tv, ok := a.info.Types[lit]
	if !ok || tv.Type == nil {
		return 0, nil, false
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return 0, nil, false
	}
	fields := map[string]dataflow.Mask{}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				return 0, nil, false
			}
			fields[key.Name] |= a.exprTaint(kv.Value, env, false)
			continue
		}
		if i >= st.NumFields() {
			return 0, nil, false
		}
		fields[st.Field(i).Name()] |= a.exprTaint(el, env, false)
	}
	return 0, fields, true
}

// resultFields resolves a returned expression to per-field taints: a
// struct-typed local (cells read directly) or a struct composite
// literal. Opaque results fall back to whole-value Return taint, which
// callers observe on every field anyway.
func (a *analyzer) resultFields(res ast.Expr, env dataflow.Taint) (dataflow.Mask, map[string]dataflow.Mask, bool) {
	switch res := ast.Unparen(res).(type) {
	case *ast.Ident:
		v := framework.VarOf(a.info, res)
		if v == nil {
			return 0, nil, false
		}
		st, ok := v.Type().Underlying().(*types.Struct)
		if !ok {
			return 0, nil, false
		}
		fields := map[string]dataflow.Mask{}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i).Name()
			fields[f] = env[dataflow.TaintKey{Var: v, Field: f}]
		}
		return env[dataflow.TaintKey{Var: v}], fields, true
	case *ast.CompositeLit:
		return a.litFields(res, env)
	}
	return 0, nil, false
}

// callFieldTaints substitutes a summarized callee's per-field result
// taints at a call site; ok is false when the callee has no
// field-granular summary.
func (a *analyzer) callFieldTaints(call *ast.CallExpr, env dataflow.Taint) (dataflow.Mask, map[string]dataflow.Mask, bool) {
	fn := framework.CalledFunc(a.info, call)
	if fn == nil {
		return 0, nil, false
	}
	sum, ok := framework.Fact(a.pass, a.local, summariesKey, fn, (*types.Func).FullName)
	if !ok || sum.ReturnFields == nil {
		return 0, nil, false
	}
	effArgs := callArgs(a.info, call)
	argT := make([]dataflow.Mask, len(effArgs))
	for i, arg := range effArgs {
		argT[i] = a.exprTaint(arg, env, false)
	}
	fields := make(map[string]dataflow.Mask, len(sum.ReturnFields))
	for f, fm := range sum.ReturnFields {
		fields[f] = substitute(fm, argT)
	}
	return substitute(sum.Return, argT), fields, true
}

// substitute maps a summary mask to a call site: source bits pass
// through, param bit i becomes the taint of argument i.
func substitute(m dataflow.Mask, argT []dataflow.Mask) dataflow.Mask {
	out := m.Sources()
	for i, t := range argT {
		if m&dataflow.ParamBit(i) != 0 {
			out |= t
		}
	}
	return out
}

// taintOf reads the current taint of an lvalue (for op= self-flow).
func (a *analyzer) taintOf(e ast.Expr, env dataflow.Taint) dataflow.Mask {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := framework.VarOf(a.info, e); v != nil {
			return env.Of(v)
		}
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if v := framework.VarOf(a.info, id); v != nil {
				return env.OfField(v, e.Sel.Name)
			}
		}
	}
	return 0
}

func (a *analyzer) setVar(env dataflow.Taint, id *ast.Ident, m dataflow.Mask) {
	v := framework.VarOf(a.info, id)
	if v == nil {
		return
	}
	env.ClearVar(v)
	if m != 0 {
		env[dataflow.TaintKey{Var: v}] = m
	}
}

// exprTaint computes the taint of an expression and applies call side
// effects (sort kills, sink reports when report is set).
func (a *analyzer) exprTaint(e ast.Expr, env dataflow.Taint, report bool) dataflow.Mask {
	switch e := e.(type) {
	case *ast.Ident:
		if v := framework.VarOf(a.info, e); v != nil {
			return env.Of(v)
		}
	case *ast.BasicLit, *ast.FuncLit:
		return 0
	case *ast.ParenExpr:
		return a.exprTaint(e.X, env, report)
	case *ast.UnaryExpr:
		return a.exprTaint(e.X, env, report)
	case *ast.StarExpr:
		return a.exprTaint(e.X, env, report)
	case *ast.SelectorExpr:
		// Field read base.F: the field's own cell plus the whole-value
		// cell. Method values and deeper chains fall back to the base's
		// full taint; package selectors have no base var and yield 0.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if v := framework.VarOf(a.info, id); v != nil {
				if s, ok := a.info.Selections[e]; ok && s.Kind() == types.FieldVal {
					return env.OfField(v, e.Sel.Name)
				}
				return env.Of(v)
			}
		}
		return a.exprTaint(e.X, env, report)
	case *ast.IndexExpr:
		return a.exprTaint(e.X, env, report) | a.exprTaint(e.Index, env, report)
	case *ast.SliceExpr:
		return a.exprTaint(e.X, env, report)
	case *ast.TypeAssertExpr:
		return a.exprTaint(e.X, env, report)
	case *ast.CompositeLit:
		var m dataflow.Mask
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= a.exprTaint(kv.Value, env, report)
			} else {
				m |= a.exprTaint(el, env, report)
			}
		}
		return m
	case *ast.BinaryExpr:
		l := a.exprTaint(e.X, env, report)
		r := a.exprTaint(e.Y, env, report)
		if (e.Op == token.EQL || e.Op == token.NEQ) && isPointerIdentity(a.info, e) {
			return l | r | dataflow.Value
		}
		return l | r
	case *ast.CallExpr:
		return a.callTaint(e, env, report)
	}
	return 0
}

// callTaint resolves a call's taint behavior: builtin propagation,
// source functions, sort kills, output/digest sinks, summarized callees,
// or the conservative default.
func (a *analyzer) callTaint(call *ast.CallExpr, env dataflow.Taint, report bool) dataflow.Mask {
	// Effective arguments include the receiver of a method call, so
	// taint like t.UnixNano() propagates from t through unknown callees.
	effArgs := callArgs(a.info, call)
	allArgs := func() dataflow.Mask {
		var m dataflow.Mask
		for _, arg := range effArgs {
			m |= a.exprTaint(arg, env, false)
		}
		return m
	}
	// Evaluate arguments once with reporting enabled so nested calls
	// (sinks inside arguments) are handled exactly once.
	if report {
		for _, arg := range effArgs {
			a.exprTaint(arg, env, true)
		}
	}

	fn := framework.CalledFunc(a.info, call)
	if fn == nil {
		// Builtin, conversion, or dynamic call: propagate arguments.
		return allArgs()
	}
	full := fullName(fn)

	switch {
	case full == "time.Now" || full == "time.Since":
		return dataflow.Value
	case fn.Pkg() != nil && (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") && fn.Type().(*types.Signature).Recv() == nil:
		return dataflow.Value
	}

	if idx, ok := sortKills[full]; ok {
		a.killOrder(call, idx, env)
		return 0
	}
	if outputSinks[full] {
		// Fprint* aimed at os.Stderr is progress/error reporting, not
		// simulation output: golden tables and CSVs never read stderr.
		if !isStderr(a.info, call) {
			for _, arg := range call.Args {
				m := a.exprTaint(arg, env, false)
				a.sink(arg.Pos(), m, "formatted output", report)
			}
		}
		return 0
	}
	if digestSinks[full] {
		m := allArgs()
		a.sink(call.Pos(), m, "a result-cache digest", report)
		return 0
	}
	if isHashWrite(fn) {
		m := allArgs()
		a.sink(call.Pos(), m, "a result-cache digest", report)
		return 0
	}
	if isObsExporter(fn) {
		// Exporters serialize cycle-domain data into replay-stable
		// artifacts (Chrome traces, NDJSON, CSV): a nondeterministic
		// argument would make two identical runs produce different files.
		for _, arg := range call.Args {
			m := a.exprTaint(arg, env, false)
			a.sink(arg.Pos(), m, "a trace exporter", report)
		}
		return 0
	}
	if isTelemetryExporter(fn) {
		// The telemetry exposition/trace/ledger writers serialize into
		// scrape- and replay-facing artifacts; nondeterminism reaching
		// them breaks the byte-stability the sweep trace and ledger
		// tests pin. Wall-clock time enters telemetry only through
		// injected clocks (dynamic calls, which stay untainted).
		for _, arg := range call.Args {
			m := a.exprTaint(arg, env, false)
			a.sink(arg.Pos(), m, "a telemetry exporter", report)
		}
		return 0
	}

	if sum, ok := framework.Fact(a.pass, a.local, summariesKey, fn, (*types.Func).FullName); ok {
		argT := make([]dataflow.Mask, len(effArgs))
		for i, arg := range effArgs {
			argT[i] = a.exprTaint(arg, env, false)
		}
		// In a generic expression context the result is observed whole,
		// so the per-field refinement collapses back into one mask;
		// storeFieldwise intercepts the `v = f(...)` shape before this.
		combined := sum.Return
		for _, fm := range sum.ReturnFields {
			combined |= fm
		}
		for i := range effArgs {
			if sum.Sink&dataflow.ParamBit(i) != 0 {
				what := sum.SinkWhat
				if what == "" {
					what = "a determinism sink in " + fn.Name()
				}
				a.sink(effArgs[i].Pos(), argT[i], what, report)
			}
		}
		return substitute(combined, argT)
	}
	// Unknown callee: arguments flow to the result.
	return allArgs()
}

// sink handles a tainted value reaching a sink: concrete source taint is
// reported, parameter taint is recorded in the current function's
// summary so the violation is reported at the call site that supplies
// the tainted argument.
func (a *analyzer) sink(pos token.Pos, m dataflow.Mask, what string, report bool) {
	if !report {
		return
	}
	if src := m.Sources(); src != 0 && !a.reported[pos] {
		a.reported[pos] = true
		a.pass.Reportf(pos, "%s value flows into %s; determinism requires a stable source", src, what)
	}
	if p := m.Params(); p != 0 {
		a.cur.Sink |= p
		if a.cur.SinkWhat == "" {
			a.cur.SinkWhat = what
		}
	}
}

// killOrder clears the Order bit of the value sorted by a sort call: all
// cells of a plain variable argument, or just the field cell when the
// argument is a field selector (sorting s.Items launders only Items).
func (a *analyzer) killOrder(call *ast.CallExpr, argIdx int, env dataflow.Taint) {
	if argIdx >= len(call.Args) {
		return
	}
	arg := call.Args[argIdx]
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = u.X
	}
	if sel, ok := arg.(*ast.SelectorExpr); ok {
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return
		}
		v := framework.VarOf(a.info, id)
		if v == nil {
			return
		}
		k := dataflow.TaintKey{Var: v, Field: sel.Sel.Name}
		if km := env[k] &^ dataflow.Order; km == 0 {
			delete(env, k)
		} else {
			env[k] = km
		}
		return
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return
	}
	v := framework.VarOf(a.info, id)
	if v == nil {
		return
	}
	for k, km := range env {
		if k.Var != v {
			continue
		}
		if km &^= dataflow.Order; km == 0 {
			delete(env, k)
		} else {
			env[k] = km
		}
	}
}

// callArgs returns the call's effective argument list with the receiver
// prepended for method calls, matching summary parameter indexing.
func callArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
	}
	return call.Args
}

// fullName is a stable spelling for matching stdlib functions:
// "pkgpath.Name" for package functions, FullName for methods.
func fullName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fn.FullName()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// isHashWrite matches the Write method of a crypto hash.
// isStderr reports whether a Fprint-family call writes to os.Stderr.
func isStderr(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Stderr" {
		return false
	}
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil {
		return v.Pkg().Path() == "os"
	}
	return false
}

func isHashWrite(fn *types.Func) bool {
	if fn.Name() != "Write" || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return strings.HasPrefix(p, "crypto/") || p == "hash" || strings.HasPrefix(p, "hash/")
}

func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// isPointerIdentity reports whether a ==/!= compares two pointers with
// no nil operand — the address-dependent comparison detflow taints.
func isPointerIdentity(info *types.Info, e *ast.BinaryExpr) bool {
	isPtr := func(x ast.Expr) bool {
		tv, ok := info.Types[x]
		if !ok || tv.Type == nil {
			return false
		}
		if tv.IsNil() {
			return false
		}
		_, ok = tv.Type.Underlying().(*types.Pointer)
		return ok
	}
	return isPtr(e.X) && isPtr(e.Y)
}

// isObsExporter matches the exported Write* entry points of the
// observability package (WriteChromeTrace, WriteNDJSON,
// WriteIntervalCSV): every argument is a trace-exporter sink.
func isObsExporter(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), "internal/obs") &&
		strings.HasPrefix(fn.Name(), "Write")
}

// isTelemetryExporter matches the exported Write* entry points of the
// telemetry package (WriteExposition, WriteSweepTrace, WriteRecord):
// every argument is a telemetry-exporter sink, for the same reason as
// the obs exporters — the artifacts must be byte-stable under replay.
func isTelemetryExporter(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), "internal/telemetry") &&
		strings.HasPrefix(fn.Name(), "Write")
}

// isFieldOfSuffix matches writes to fields of any named struct type
// whose name ends in suffix ("Stats", "Sample").
func isFieldOfSuffix(info *types.Info, sel *ast.SelectorExpr, suffix string) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		if p, ok := t.(*types.Pointer); ok {
			named, ok = p.Elem().(*types.Named)
			if !ok {
				return false
			}
		} else {
			return false
		}
	}
	return strings.HasSuffix(named.Obj().Name(), suffix)
}
