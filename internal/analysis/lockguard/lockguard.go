// Package lockguard implements the zivconc mutex-discipline analyzer:
// a field annotated //ziv:guards(mu) on a struct (or a package-level
// variable annotated with a package-level mutex) may only be read or
// written while the named sync.Mutex/sync.RWMutex is held.
//
// Held-lock sets are tracked with the forward dataflow solver over the
// zivflow CFG: x.mu.Lock()/RLock() adds the lock (exclusive/shared),
// Unlock()/RUnlock() removes it, and `defer x.mu.Unlock()` keeps the
// lock held to the end of the function, which is the usual
// lock-for-the-rest-of-scope idiom. Lock identity is the root variable
// of the selector chain plus the dotted field path, so c.inner.mu and
// d.inner.mu are distinct while two spellings of the same chain match.
//
// Discipline rules, in decreasing order of strictness:
//
//   - An access to an annotated field outside the critical section is
//     reported, unless the base object is provably fresh (assigned only
//     from composite literals or new() in the same function — a
//     constructor initializing an object nobody else can see yet).
//   - A write under only the read half of a sync.RWMutex is reported.
//   - Taking the address of a guarded field is always reported: the
//     pointer outlives any critical section the analyzer can see.
//   - An unexported function that accesses a guarded field through a
//     receiver or parameter base without locking is not reported at the
//     access; instead it acquires a caller obligation ("callers must
//     hold base.mu"), checked at every call site — the *Locked-suffix
//     helper idiom. Exported functions are API boundary: they must
//     lock for themselves.
//
// Unannotated fields that share a struct with a mutex participate in
// majority-access inference: when a field is accessed with the mutex
// held at least three times and at least three-quarters of the
// classifiable accesses hold it, the minority accesses are reported
// with a suggestion to annotate. Accesses through receiver/parameter
// bases in unexported functions are unclassifiable (the caller may
// hold the lock) and count toward neither side.
//
// Function literals that are not immediately invoked are analyzed as
// separate functions with an empty entry lock set (a goroutine or
// deferred closure does not inherit the spawn point's locks).
// Statements inside plain `defer` calls are not flow-analyzed: they
// run at return, where the held set is unknowable.
//
// Guard specs travel across packages as facts keyed by the struct's
// full type name, so a downstream package touching an exported guarded
// field is held to the same discipline.
package lockguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"zivsim/internal/analysis/cfg"
	"zivsim/internal/analysis/dataflow"
	"zivsim/internal/analysis/framework"
)

// Analyzer is the lockguard analysis.
var Analyzer = &framework.Analyzer{
	Name: "lockguard",
	Doc: "checks that //ziv:guards(mu) fields are only accessed with their mutex held, " +
		"tracking held-lock sets with the forward dataflow solver and bubbling " +
		"caller-must-hold obligations out of unexported helpers",
	Run: run,
}

// Fact keys exported per package.
const (
	guardsKey      = "guards"      // map[string]string: "pkg.Type.Field" -> mutex field name
	obligationsKey = "obligations" // map[string][]oblig: function full name -> required locks
)

var (
	guardsRe       = regexp.MustCompile(`^//\s*ziv:guards\(([A-Za-z0-9_]*)\)\s*$|^//\s*ziv:guards\(([A-Za-z0-9_]*)\)\s`)
	guardsPrefixRe = regexp.MustCompile(`^//\s*ziv:guards`)
)

// guardsDirective extracts the mutex name of a //ziv:guards directive.
// The second result distinguishes "not a directive" from "directive
// with an empty name"; the third flags a malformed spelling.
func guardsDirective(text string) (name string, ok, malformed bool) {
	if !guardsPrefixRe.MatchString(text) {
		return "", false, false
	}
	m := guardsRe.FindStringSubmatch(text)
	if m == nil {
		return "", false, true
	}
	if m[1] != "" {
		return m[1], true, false
	}
	return m[2], true, false
}

// lockID names one mutex: the root variable of the chain it hangs off
// plus the dotted field path from that root ("mu", "inner.mu"). A
// package-level mutex is its own root with path equal to its name.
type lockID struct {
	base *types.Var
	path string
}

// heldSet is the forward dataflow fact: the locks held on every path
// to a point. The mapped value records whether the hold is exclusive
// (Lock) or shared (RLock), so a lock held shared on either path is
// only shared at a join.
type heldSet = dataflow.MustSet[lockID]

// oblig is one caller obligation: the lock that must be held at every
// call site, named relative to the callee's receiver (ParamIndex -1)
// or to one of its parameters, or a package-level mutex (PkgMu set).
type oblig struct {
	Mu         string // dotted path from the base, e.g. "mu" or "inner.mu"
	ParamIndex int    // -1: receiver; >=0: parameter position
	PkgMu      string // full name of a package-level mutex ("pkg/path.var")
}

func (o oblig) key() string {
	return fmt.Sprintf("%s|%d|%s", o.Mu, o.ParamIndex, o.PkgMu)
}

func (o oblig) String() string {
	if o.PkgMu != "" {
		return o.PkgMu
	}
	if o.ParamIndex < 0 {
		return "recv." + o.Mu
	}
	return fmt.Sprintf("arg%d.%s", o.ParamIndex, o.Mu)
}

// inferKey tallies majority-inference evidence for one (field, mutex)
// pair.
type inferKey struct {
	field *types.Var
	mu    string
}

type analyzer struct {
	pass *framework.Pass
	info *types.Info
	// specs maps an annotated struct field to its guard mutex name.
	specs map[*types.Var]string
	// pkgVarSpecs maps an annotated package-level variable to its
	// package-level mutex.
	pkgVarSpecs map[*types.Var]*types.Var
	// inferCands maps unannotated fields of mutex-bearing structs to the
	// names of their sibling mutex fields.
	inferCands map[*types.Var][]string
	// obligations maps function full names (this package) to the locks
	// every call site must hold.
	obligations map[string][]oblig

	inferHeld   map[inferKey]int
	inferUnheld map[inferKey][]token.Pos // the unlocked access sites

	// Per-function state.
	fn       *types.Func
	exported bool
	params   map[*types.Var]int // receiver -1, parameters by position
	fresh    map[*types.Var]bool
	held     []heldSet // block-entry facts
	g        *cfg.Graph
	events   [][][]event // events[block][node] in execution order
	lits     []*ast.FuncLit
	report   bool
}

// event is one lock operation, guarded access, or call inside a block
// node, in source order.
type event struct {
	pos token.Pos

	// lock/unlock
	lock, unlock bool
	id           lockID
	exclusive    bool

	// guarded access
	field *types.Var // annotated field or package var (spec events)
	need  lockID
	write bool
	addr  bool
	// inference evidence (unannotated candidate)
	inferField *types.Var
	inferBase  *types.Var
	inferNeeds []lockID // one per sibling mutex, aligned with inferMus
	inferMus   []string

	// call with potential obligations
	call *ast.CallExpr
	goes bool // call is a `go` statement target: obligations checked against an empty held set
}

func run(pass *framework.Pass) (any, error) {
	a := &analyzer{
		pass:        pass,
		info:        pass.TypesInfo,
		specs:       map[*types.Var]string{},
		pkgVarSpecs: map[*types.Var]*types.Var{},
		inferCands:  map[*types.Var][]string{},
		obligations: map[string][]oblig{},
		inferHeld:   map[inferKey]int{},
		inferUnheld: map[inferKey][]token.Pos{},
	}
	a.collectSpecs()

	framework.SolveObligations(pass, a.obligations, a.analyzeFunc)
	a.reportInference()

	guards := map[string]string{}
	for v, mu := range a.specs {
		if k := framework.FieldKey(v); k != "" {
			guards[k] = mu
		}
	}
	pass.ExportFact(guardsKey, guards)
	pass.ExportFact(obligationsKey, a.obligations)
	return nil, nil
}

// collectSpecs gathers //ziv:guards directives on struct fields and
// package-level variables, reporting malformed or unresolvable specs,
// and indexes the unannotated inference candidates.
func (a *analyzer) collectSpecs() {
	for _, file := range a.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				a.structSpecs(st)
			}
			return true
		})
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				a.varSpec(gd, vs)
			}
		}
	}
}

func (a *analyzer) structSpecs(st *ast.StructType) {
	// Sibling mutex fields, for spec resolution and inference candidates.
	mutexSibs := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if v, ok := a.info.Defs[name].(*types.Var); ok && framework.IsNamed(v.Type(), "sync", "Mutex", "RWMutex") {
				mutexSibs[name.Name] = true
			}
		}
	}
	var sibNames []string
	for n := range mutexSibs {
		sibNames = append(sibNames, n)
	}
	sort.Strings(sibNames)

	for _, f := range st.Fields.List {
		mu, muPos, malformed := a.fieldDirective(f)
		if malformed {
			continue
		}
		for _, name := range f.Names {
			v, ok := a.info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			switch {
			case mu != "":
				if !mutexSibs[mu] {
					if sib := a.siblingVar(st, mu); sib == nil {
						a.pass.Reportf(muPos, "ziv:guards(%s): no sibling field named %q in this struct", mu, mu)
					} else {
						a.pass.Reportf(muPos, "ziv:guards(%s): sibling field %q is not a sync.Mutex or sync.RWMutex", mu, mu)
					}
					continue
				}
				a.specs[v] = mu
			case len(sibNames) > 0 && !framework.IsNamed(v.Type(), "sync"):
				a.inferCands[v] = sibNames
			}
		}
	}
}

// fieldDirective parses a field's //ziv:guards comment, reporting parse
// errors in place. malformed is true when a directive was present but
// unusable; muPos is the directive's position for later resolution
// errors.
func (a *analyzer) fieldDirective(f *ast.Field) (mu string, muPos token.Pos, malformed bool) {
	muPos = f.Pos()
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			name, ok, bad := guardsDirective(c.Text)
			switch {
			case bad:
				a.pass.Reportf(c.Pos(), "malformed //ziv:guards directive: want //ziv:guards(mutexField)")
				malformed = true
			case ok && name == "":
				a.pass.Reportf(c.Pos(), "//ziv:guards with empty mutex name: want //ziv:guards(mutexField)")
				malformed = true
			case ok:
				mu = name
				muPos = c.Pos()
			}
		}
	}
	return mu, muPos, malformed
}

func (a *analyzer) siblingVar(st *ast.StructType, name string) *types.Var {
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if id.Name == name {
				v, _ := a.info.Defs[id].(*types.Var)
				return v
			}
		}
	}
	return nil
}

func (a *analyzer) varSpec(gd *ast.GenDecl, vs *ast.ValueSpec) {
	var mu string
	for _, cg := range []*ast.CommentGroup{gd.Doc, vs.Doc, vs.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			name, ok, bad := guardsDirective(c.Text)
			switch {
			case bad:
				a.pass.Reportf(c.Pos(), "malformed //ziv:guards directive: want //ziv:guards(mutexVar)")
				return
			case ok && name == "":
				a.pass.Reportf(c.Pos(), "//ziv:guards with empty mutex name: want //ziv:guards(mutexVar)")
				return
			case ok:
				mu = name
			}
		}
	}
	if mu == "" {
		return
	}
	obj := a.pass.Pkg.Scope().Lookup(mu)
	muVar, _ := obj.(*types.Var)
	if muVar == nil || !framework.IsNamed(muVar.Type(), "sync", "Mutex", "RWMutex") {
		a.pass.Reportf(vs.Pos(), "ziv:guards(%s): no package-level sync.Mutex or sync.RWMutex named %q", mu, mu)
		return
	}
	for _, id := range vs.Names {
		if v, ok := a.info.Defs[id].(*types.Var); ok {
			a.pkgVarSpecs[v] = muVar
		}
	}
}

// analyzeFunc analyzes one function; with report set it emits
// diagnostics, otherwise it only accumulates obligations.
func (a *analyzer) analyzeFunc(fd *ast.FuncDecl, report bool) {
	fn, _ := a.info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	a.fn = fn
	a.exported = fd.Name.IsExported()
	a.report = report
	a.params = map[*types.Var]int{}
	for _, v := range framework.Params(a.info, fd.Recv) {
		if v != nil {
			a.params[v] = -1
		}
	}
	for i, v := range framework.Params(a.info, fd.Type.Params) {
		if v != nil {
			a.params[v] = i
		}
	}

	a.analyzeBody(fd.Body, false)
}

// analyzeBody runs the held-lock analysis over one function or
// function-literal body. Literals discovered inside (and not
// immediately invoked) are queued and analyzed afterwards with an
// empty entry set and no obligation bubbling.
func (a *analyzer) analyzeBody(body *ast.BlockStmt, isLit bool) {
	a.collectFresh(body, isLit)
	a.g = cfg.New(body)
	a.lits = nil
	a.indexEvents()

	a.held = dataflow.Forward[heldSet](a.g, dataflow.MustLattice[lockID]{},
		heldSet{M: map[lockID]bool{}}, a.transfer)

	for _, b := range a.g.Blocks {
		cur := a.held[b.Index]
		if cur.Top {
			continue // unreachable block
		}
		cur = cur.With()
		for i := range b.Nodes {
			for _, ev := range a.events[b.Index][i] {
				a.apply(&cur, ev)
			}
		}
	}

	lits := a.lits
	wasExported := a.exported
	wasParams := a.params
	for _, lit := range lits {
		// A literal has no name to hang obligations on and its locks are
		// its own business: report directly, with the enclosing function's
		// locals treated as shared (the literal may run on another
		// goroutine or after return).
		a.exported = true
		a.params = map[*types.Var]int{}
		a.analyzeBody(lit.Body, true)
	}
	a.exported = wasExported
	a.params = wasParams
}

// collectFresh finds locals that only ever hold objects constructed in
// this function (composite literals or new), which nobody else can see
// yet: constructor writes before publication need no lock. Inside a
// function literal nothing qualifies — captured locals may be shared
// with the spawning goroutine by the time the literal runs.
func (a *analyzer) collectFresh(body *ast.BlockStmt, isLit bool) {
	a.fresh = map[*types.Var]bool{}
	if isLit {
		return
	}
	poisoned := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				for _, lhs := range n.Lhs {
					if v := a.identVar(lhs); v != nil {
						poisoned[v] = true
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				v := a.identVar(lhs)
				if v == nil {
					continue
				}
				if freshRHS(n.Rhs[i]) {
					a.fresh[v] = true
				} else {
					poisoned[v] = true
				}
			}
		case *ast.ValueSpec:
			// var c Counter — a zero value local is fresh until assigned
			// something shared.
			if len(n.Values) == 0 {
				for _, id := range n.Names {
					if v, ok := a.info.Defs[id].(*types.Var); ok {
						if _, isStruct := v.Type().Underlying().(*types.Struct); isStruct {
							a.fresh[v] = true
						}
					}
				}
			}
		}
		return true
	})
	for v := range poisoned {
		delete(a.fresh, v)
	}
}

func freshRHS(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

func (a *analyzer) identVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return framework.VarOf(a.info, id)
}

// indexEvents walks every block node and records its lock operations,
// guarded accesses and obligation-carrying calls in source order.
func (a *analyzer) indexEvents() {
	a.events = make([][][]event, len(a.g.Blocks))
	for _, b := range a.g.Blocks {
		a.events[b.Index] = make([][]event, len(b.Nodes))
		for i, n := range b.Nodes {
			var evs []event
			for _, root := range cfg.ScanRoots(n) {
				evs = append(evs, a.scanEvents(root)...)
			}
			sort.SliceStable(evs, func(x, y int) bool { return evs[x].pos < evs[y].pos })
			a.events[b.Index][i] = evs
		}
	}
}

// scanEvents collects events from one subtree, skipping deferred calls
// and non-invoked function literals (queued for separate analysis).
func (a *analyzer) scanEvents(root ast.Node) []event {
	var evs []event
	writes := writeTargets(root)

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.lits = append(a.lits, n)
			return false
		case *ast.DeferStmt:
			// Runs at return: out of flow order. Still analyze a deferred
			// literal's body separately.
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				a.lits = append(a.lits, lit)
			}
			return false
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				a.lits = append(a.lits, lit)
				for _, arg := range n.Call.Args {
					ast.Inspect(arg, visit)
				}
				return false
			}
			// go f(...): f runs with no lock held; check its obligations
			// against the empty set.
			evs = append(evs, event{pos: n.Pos(), call: n.Call, goes: true})
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.CallExpr:
			if id, excl, lock, ok := a.lockOp(n); ok {
				evs = append(evs, event{pos: n.Pos(), lock: lock, unlock: !lock, id: id, exclusive: excl})
				return true
			}
			// Immediately-invoked literals stay in flow: scan the body
			// inline.
			if _, ok := ast.Unparen(n.Fun).(*ast.FuncLit); !ok {
				evs = append(evs, event{pos: n.Pos(), call: n})
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					if fv := framework.FieldVarOf(a.info, sel); fv != nil {
						if ev, ok := a.specAccess(sel, fv, false); ok {
							ev.addr = true
							evs = append(evs, ev)
							ast.Inspect(sel.X, visit)
							return false
						}
					}
				}
			}
			return true
		case *ast.SelectorExpr:
			if fv := framework.FieldVarOf(a.info, n); fv != nil {
				if ev, ok := a.specAccess(n, fv, writes[n]); ok {
					evs = append(evs, ev)
				} else if ev, ok := a.inferAccess(n, fv, writes[n]); ok {
					evs = append(evs, ev)
				}
				ast.Inspect(n.X, visit)
				return false
			}
			return true
		case *ast.Ident:
			if v := framework.VarOf(a.info, n); v != nil {
				if mu, ok := a.pkgVarSpecs[v]; ok {
					if _, isDef := a.info.Defs[n]; !isDef {
						evs = append(evs, event{
							pos:   n.Pos(),
							field: v,
							need:  lockID{base: mu, path: mu.Name()},
							write: writes[n],
						})
					}
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(root, visit)
	return evs
}

// writeTargets marks the selector/identifier nodes that are written by
// assignments and inc/dec statements in the subtree. Writing through a
// map or slice field mutates the field's contents, so the index
// expression's base selector counts as a write.
func writeTargets(root ast.Node) map[ast.Node]bool {
	w := map[ast.Node]bool{}
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				w[x] = true
				return
			case *ast.Ident:
				w[x] = true
				return
			default:
				return
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		}
		return true
	})
	return w
}

// specAccess resolves a selector against the annotated guard specs
// (local or imported) and builds the access event.
func (a *analyzer) specAccess(sel *ast.SelectorExpr, fv *types.Var, write bool) (event, bool) {
	mu := a.guardOf(fv)
	if mu == "" {
		return event{}, false
	}
	base, prefix, ok := framework.Chain(a.info, sel.X)
	if !ok {
		return event{}, false // unverifiable base: stay silent
	}
	need := lockID{base: base, path: framework.JoinPath(prefix, mu)}
	return event{pos: sel.Sel.Pos(), field: fv, need: need, write: write}, true
}

// inferAccess builds majority-inference evidence for an unannotated
// candidate field.
func (a *analyzer) inferAccess(sel *ast.SelectorExpr, fv *types.Var, write bool) (event, bool) {
	mus, ok := a.inferCands[fv]
	if !ok {
		return event{}, false
	}
	base, prefix, ok := framework.Chain(a.info, sel.X)
	if !ok {
		return event{}, false
	}
	ev := event{pos: sel.Sel.Pos(), inferField: fv, inferBase: base, inferMus: mus, write: write}
	for _, mu := range mus {
		ev.inferNeeds = append(ev.inferNeeds, lockID{base: base, path: framework.JoinPath(prefix, mu)})
	}
	return ev, true
}

// guardOf resolves a field's guard mutex name: local specs directly,
// imported fields through the exported guards fact.
func (a *analyzer) guardOf(v *types.Var) string {
	if mu, ok := a.specs[v]; ok {
		return mu
	}
	mu, _ := framework.Fact[*types.Var, string](a.pass, nil, guardsKey, v, framework.FieldKey)
	return mu
}

// transfer applies a block's lock and unlock events to the incoming
// held set.
func (a *analyzer) transfer(b *cfg.Block, in heldSet) heldSet {
	if in.Top {
		return in
	}
	out := in.With()
	for i := range b.Nodes {
		for _, ev := range a.events[b.Index][i] {
			switch {
			case ev.lock:
				out.M[ev.id] = ev.exclusive
			case ev.unlock:
				delete(out.M, ev.id)
			}
		}
	}
	return out
}

// apply advances cur through one event, checking accesses and call
// obligations against the current held set.
func (a *analyzer) apply(cur *heldSet, ev event) {
	switch {
	case ev.lock:
		cur.M[ev.id] = ev.exclusive
	case ev.unlock:
		delete(cur.M, ev.id)
	case ev.addr:
		if a.report {
			a.pass.Reportf(ev.pos, "address of guarded field %s escapes the %s critical-section discipline; pass values or refactor",
				ev.field.Name(), ev.need.path)
		}
	case ev.field != nil:
		a.checkAccess(cur, ev)
	case ev.inferField != nil:
		a.tallyInference(cur, ev)
	case ev.call != nil:
		a.checkCall(cur, ev)
	}
}

func (a *analyzer) checkAccess(cur *heldSet, ev event) {
	if a.fresh[ev.need.base] {
		return
	}
	if excl, held := cur.M[ev.need]; held {
		if ev.write && !excl {
			if a.report {
				a.pass.Reportf(ev.pos, "write to guarded field %s holding only the read lock %s", ev.field.Name(), ev.need.path)
			}
		}
		return
	}
	verb := "read of"
	if ev.write {
		verb = "write to"
	}
	target := "guarded field"
	if _, pkgVar := a.pkgVarSpecs[ev.field]; pkgVar {
		target = "guarded package variable"
	}
	a.unheld(ev.pos, oblig{Mu: ev.need.path, ParamIndex: a.paramIndexOf(ev.need.base)},
		ev.need, fmt.Sprintf("%s %s %s without holding %s", verb, target, ev.field.Name(), ev.need.path))
}

// unheld handles a failed lock requirement: unexported functions with a
// receiver/parameter base (or a package-level root) bubble the
// requirement to their callers; everything else reports.
func (a *analyzer) unheld(pos token.Pos, ob oblig, need lockID, msg string) {
	if framework.IsPkgLevel(need.base) {
		ob = oblig{Mu: need.path, PkgMu: fullName(need.base), ParamIndex: -2}
	}
	if !a.exported && (ob.PkgMu != "" || a.paramIndexOf(need.base) != -2) {
		a.addObligation(ob)
		return
	}
	if a.report {
		a.pass.Reportf(pos, "%s", msg)
	}
}

func (a *analyzer) addObligation(ob oblig) {
	if a.fn == nil {
		return
	}
	full := a.fn.FullName()
	for _, have := range a.obligations[full] {
		if have.key() == ob.key() {
			return
		}
	}
	a.obligations[full] = append(a.obligations[full], ob)
	sort.Slice(a.obligations[full], func(i, j int) bool {
		return a.obligations[full][i].key() < a.obligations[full][j].key()
	})
}

// paramIndexOf returns -1 for the receiver, >=0 for a parameter, and
// -2 for anything else.
func (a *analyzer) paramIndexOf(v *types.Var) int {
	if idx, ok := a.params[v]; ok {
		return idx
	}
	return -2
}

func (a *analyzer) tallyInference(cur *heldSet, ev event) {
	if !a.report {
		return
	}
	if a.fresh[ev.inferBase] {
		return
	}
	for i, mu := range ev.inferMus {
		k := inferKey{field: ev.inferField, mu: mu}
		if _, held := cur.M[ev.inferNeeds[i]]; held {
			a.inferHeld[k]++
			continue
		}
		// Unlocked through a receiver/parameter base in an unexported
		// function: the caller may hold the lock — unclassifiable.
		if !a.exported && a.paramIndexOf(ev.inferBase) != -2 {
			continue
		}
		a.inferUnheld[k] = append(a.inferUnheld[k], ev.pos)
	}
}

func (a *analyzer) reportInference() {
	keys := make([]inferKey, 0, len(a.inferUnheld))
	for k := range a.inferUnheld {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].field.Name() != keys[j].field.Name() {
			return keys[i].field.Name() < keys[j].field.Name()
		}
		return keys[i].mu < keys[j].mu
	})
	for _, k := range keys {
		held := a.inferHeld[k]
		unheld := a.inferUnheld[k]
		if held < 3 || held < 3*len(unheld) {
			continue
		}
		tn := framework.OwnerTypeName(k.field)
		for _, pos := range unheld {
			a.pass.Reportf(pos,
				"field %s of %s is accessed under %s in %d other place(s) but not here (annotate //ziv:guards(%s) to enforce)",
				k.field.Name(), tn, k.mu, held, k.mu)
		}
	}
}

// checkCall enforces the callee's caller-must-hold obligations at one
// call site.
func (a *analyzer) checkCall(cur *heldSet, ev event) {
	fn := framework.CalledFunc(a.info, ev.call)
	if fn == nil {
		return
	}
	obs, _ := framework.Fact(a.pass, a.obligations, obligationsKey, fn, (*types.Func).FullName)
	if len(obs) == 0 {
		return
	}
	held := cur
	if ev.goes {
		held = &heldSet{M: map[lockID]bool{}}
	}
	for _, ob := range obs {
		a.checkObligation(held, ev, fn, ob)
	}
}

func (a *analyzer) checkObligation(cur *heldSet, ev event, fn *types.Func, ob oblig) {
	if ob.PkgMu != "" {
		for id := range cur.M {
			if framework.IsPkgLevel(id.base) && fullName(id.base) == ob.PkgMu && id.path == ob.Mu {
				return
			}
		}
		a.unheldCall(ev, fn, ob, lockID{})
		return
	}

	// Resolve the base expression the obligation is relative to.
	var baseExpr ast.Expr
	if ob.ParamIndex < 0 {
		sel, ok := ast.Unparen(ev.call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		baseExpr = sel.X
	} else {
		if ob.ParamIndex >= len(ev.call.Args) {
			return
		}
		baseExpr = ev.call.Args[ob.ParamIndex]
	}
	base, prefix, ok := framework.Chain(a.info, baseExpr)
	if !ok {
		return
	}
	if a.fresh[base] {
		return
	}
	need := lockID{base: base, path: framework.JoinPath(prefix, ob.Mu)}
	if _, held := cur.M[need]; held {
		return
	}
	a.unheldCall(ev, fn, oblig{Mu: need.path, ParamIndex: a.paramIndexOf(base)}, need)
}

func (a *analyzer) unheldCall(ev event, fn *types.Func, ob oblig, need lockID) {
	if ob.PkgMu != "" {
		// Package-level obligations re-bubble as-is through unexported
		// callers.
		if !a.exported {
			a.addObligation(ob)
			return
		}
		if a.report {
			what := ob.PkgMu
			if !strings.HasSuffix(what, "."+ob.Mu) {
				what += "." + ob.Mu
			}
			a.pass.Reportf(ev.pos, "call to %s requires holding %s", fn.Name(), what)
		}
		return
	}
	a.unheld(ev.pos, ob, need, fmt.Sprintf("call to %s requires holding %s.%s",
		fn.Name(), baseName(need.base), ob.Mu))
}

func baseName(v *types.Var) string {
	if v == nil {
		return "?"
	}
	return v.Name()
}

// lockOp matches mu.Lock/Unlock/RLock/RUnlock calls on a
// sync.Mutex/RWMutex chain and returns the lock identity.
func (a *analyzer) lockOp(call *ast.CallExpr) (id lockID, exclusive, lock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockID{}, false, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		exclusive, lock = true, true
	case "RLock":
		exclusive, lock = false, true
	case "Unlock":
		exclusive, lock = true, false
	case "RUnlock":
		exclusive, lock = false, false
	default:
		return lockID{}, false, false, false
	}
	if !framework.IsNamed(a.info.Types[sel.X].Type, "sync", "Mutex", "RWMutex") {
		return lockID{}, false, false, false
	}
	base, path, chainOK := framework.Chain(a.info, sel.X)
	if !chainOK {
		return lockID{}, false, false, false
	}
	if path == "" {
		path = base.Name() // bare mutex variable
	}
	return lockID{base: base, path: path}, exclusive, lock, true
}

func fullName(v *types.Var) string {
	return v.Pkg().Path() + "." + v.Name()
}
