// Package sidecarsync checks that every write to a primary structure is
// followed — on every non-panicking path — by an update of its declared
// sidecar mirrors. The simulator keeps several derived structures for
// speed (the LLC and directory tag sidecars, the LLC property vectors
// refreshed by updateSet, the scheduler's warm-up countdown): a write
// that reaches the primary and not its mirror is a silent
// desynchronization that CheckInvariants may only catch long after the
// fact, if at all.
//
// Obligations are declared where the structure lives:
//
//	type bank struct {
//	    //ziv:mirror(tags)
//	    slots []slot
//	    //ziv:mirror(tags,updateSet) on valid
//	    masks []wayMasks
//	    ...
//	}
//
// The first form requires every whole-element write (bk.slots[i] = x,
// *alias = x, or reassigning the field itself) to be followed by a
// mention of each mirror name. The `on` form constrains writes to the
// listed element fields instead (m.valid |= bit).
//
// Discharge is a backward must-reach dataflow problem solved with
// dataflow.Backward: the fact at each program point is the set of
// mirror mentions that occur on *every* path from that point to the
// function exit (intersection join, top at unexplored points). A write
// is satisfied when the mirror is mentioned later in its own block or
// is in the must-set at the block's end. Panicking blocks have no CFG
// successors, so their facts stay at top and never weaken the
// intersection — a mirror update does not have to run when the
// simulator is already panicking. The must-set strictly refines the old
// postdominator sweep: a mirror updated on both arms of an if/else now
// counts, while one behind a single arm still does not.
//
// Mentions are base-sensitive: t.tags, or a call t.updateSet(...),
// records the receiver chain's root variable, and a write to dst's
// primary is not discharged by updating src's mirror of the same name. Bases match up to
// intra-function derivation — a handle carved out of the structure
// (bk := &l.banks[i]) shares l's base — and a bare identifier mention
// (no selector base) conservatively matches any base. Derivation does
// not cross ordinary calls: u := t.Peer() makes u its own base, since a
// helper may hand back a different object entirely. Only the results of
// declared //ziv:aliases accessors derive from their receiver.
//
// Accessor functions that hand out interior pointers declare it:
//
//	//ziv:aliases(slots)
//	func (l *LLC) slot(loc directory.Location) *slot { ... }
//
// and writes through their results are checked like direct writes.
// Alias declarations, call obligations, and the mirror field specs
// themselves (keyed by "pkgpath.Type.Field") are exported as facts, so
// a package writing through another package's accessor — or directly to
// another package's exported mirrored field — inherits the obligations.
//
// The check is interprocedural within and across packages: an
// unexported function whose receiver- or parameter-based write leaves a
// mirror stale does not report locally — it exports the obligation, and
// every call site must satisfy it instead (the hierarchy's step/Run
// split). Exported functions are API boundaries and must satisfy their
// mirrors internally.
package sidecarsync

import (
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

// Analyzer is the sidecarsync analysis.
var Analyzer = &framework.Analyzer{
	Name: "sidecarsync",
	Doc:  "writes to mirrored structures must be followed by their sidecar updates on every path",
	Run:  run,
}

// Rule is one //ziv:mirror declaration: Mirrors must follow writes; an
// empty On list binds whole-element writes, a non-empty one binds
// writes to those element fields.
type Rule struct {
	Mirrors []string // sidecar update calls that must follow a write
	On      []string // element fields the rule binds to (empty = whole element)
}

// Fact keys exported per package.
const (
	aliasesKey     = "aliases"
	obligationsKey = "obligations"
	fieldSpecsKey  = "fieldspecs"
)

var (
	mirrorRe  = regexp.MustCompile(`^//\s*ziv:mirror\(([A-Za-z0-9_,\s]+)\)(?:\s+on\s+([A-Za-z0-9_,\s]+))?`)
	aliasesRe = regexp.MustCompile(`^//\s*ziv:aliases\(([A-Za-z0-9_]+)\)`)
)

type analyzer struct {
	pass *framework.Pass
	info *types.Info
	// specs maps an annotated struct field to its rules.
	specs map[*types.Var][]Rule
	// aliasFuncs maps accessor full names (this package) to the rules of
	// the field they alias.
	aliasFuncs map[string][]Rule
	// obligations maps function full names (this package) to mirror
	// names every call site must satisfy.
	obligations map[string][]string

	// Per-function state.
	fn       *types.Func
	params   map[*types.Var]bool
	aliasVar map[*types.Var]aliasInfo
	// derived maps a local to the root variable of its initializer
	// (bk := &l.banks[i] derives bk from l), so base matching can
	// follow handles carved out of the structure they mirror.
	derived map[*types.Var]*types.Var
	g       *cfg.Graph
	// nodeMentions[b][i] holds the identifier mentions of block b's node
	// i (for same-block suffix scans); outs[b] is the backward must-reach
	// solution at block b's end.
	nodeMentions [][][]mention
	outs         []mustSet
}

type aliasInfo struct {
	rules     []Rule
	base      *types.Var // root of the aliased expression, for base matching
	baseParam bool
}

// mention is one identifier occurrence: the name plus the root variable
// of the selector chain it hangs off (nil for bare identifiers, which
// match any base).
type mention struct {
	name string
	base *types.Var
}

// mustSet is the backward dataflow fact: the mentions occurring on
// every path from a point to the exit.
type mustSet = dataflow.MustSet[mention]

func run(pass *framework.Pass) (any, error) {
	a := &analyzer{
		pass:        pass,
		info:        pass.TypesInfo,
		specs:       map[*types.Var][]Rule{},
		aliasFuncs:  map[string][]Rule{},
		obligations: map[string][]string{},
	}
	a.collectSpecs()
	a.collectAliases()

	framework.SolveObligations(pass, a.obligations, a.analyzeFunc)

	fieldSpecs := map[string][]Rule{}
	for v, rules := range a.specs {
		if k := framework.FieldKey(v); k != "" {
			fieldSpecs[k] = rules
		}
	}
	pass.ExportFact(aliasesKey, a.aliasFuncs)
	pass.ExportFact(obligationsKey, a.obligations)
	pass.ExportFact(fieldSpecsKey, fieldSpecs)
	return nil, nil
}

func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// collectSpecs finds //ziv:mirror directives on struct fields.
func (a *analyzer) collectSpecs() {
	for _, file := range a.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				rules := fieldRules(field)
				if len(rules) == 0 {
					continue
				}
				for _, name := range field.Names {
					if v, ok := a.info.Defs[name].(*types.Var); ok {
						a.specs[v] = append(a.specs[v], rules...)
					}
				}
			}
			return true
		})
	}
}

func fieldRules(field *ast.Field) []Rule {
	var rules []Rule
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			m := mirrorRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			rules = append(rules, Rule{Mirrors: splitNames(m[1]), On: splitNames(m[2])})
		}
	}
	return rules
}

// collectAliases finds //ziv:aliases directives on accessor functions
// and resolves the aliased field's rules from the receiver type.
func (a *analyzer) collectAliases() {
	for _, file := range a.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			var fieldName string
			for _, c := range fd.Doc.List {
				if m := aliasesRe.FindStringSubmatch(c.Text); m != nil {
					fieldName = m[1]
				}
			}
			if fieldName == "" {
				continue
			}
			fn, _ := a.info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if v := a.fieldByName(fn, fieldName); v != nil {
				if rules, ok := a.specs[v]; ok {
					a.aliasFuncs[fn.FullName()] = rules
				}
			}
		}
	}
}

// fieldByName resolves the field an accessor aliases: first a field of
// the receiver's own struct, then — for accessors that reach through a
// contained struct, like the LLC handing out pointers into its banks —
// any annotated field of that name in the package.
func (a *analyzer) fieldByName(fn *types.Func, name string) *types.Var {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == name {
					return st.Field(i)
				}
			}
		}
	}
	var found *types.Var
	for v := range a.specs {
		if v.Name() != name {
			continue
		}
		if found != nil {
			return nil // ambiguous across structs: refuse to guess
		}
		found = v
	}
	return found
}

// rulesOf resolves a field's mirror rules: local specs directly,
// imported fields through the exported fieldspecs fact.
func (a *analyzer) rulesOf(v *types.Var) []Rule {
	if rules, ok := a.specs[v]; ok {
		return rules
	}
	rules, _ := framework.Fact[*types.Var, []Rule](a.pass, nil, fieldSpecsKey, v, framework.FieldKey)
	return rules
}

// analyzeFunc analyzes one function; with report set it emits
// diagnostics, otherwise it only accumulates obligations.
func (a *analyzer) analyzeFunc(fd *ast.FuncDecl, report bool) {
	fn, _ := a.info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	a.fn = fn
	a.params = map[*types.Var]bool{}
	for _, v := range append(framework.Params(a.info, fd.Recv), framework.Params(a.info, fd.Type.Params)...) {
		if v != nil {
			a.params[v] = true
		}
	}
	a.collectAliasVars(fd.Body)
	a.collectDerived(fd.Body)

	a.g = cfg.New(fd.Body)
	a.indexMentions()
	_, a.outs = dataflow.Backward[mustSet](a.g, dataflow.MustLattice[mention]{},
		mustSet{M: map[mention]bool{}}, a.mentionTransfer)

	for _, b := range a.g.Blocks {
		for i, n := range b.Nodes {
			a.checkNode(b, i, n, report)
		}
	}
}

// collectAliasVars records variables bound to interior pointers of
// mirrored arrays: v := &base.field[i], or v := accessor(...) for an
// //ziv:aliases accessor.
func (a *analyzer) collectAliasVars(body *ast.BlockStmt) {
	a.aliasVar = map[*types.Var]aliasInfo{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			v := framework.VarOf(a.info, id)
			if v == nil {
				continue
			}
			if info, ok := a.aliasOf(as.Rhs[i]); ok {
				a.aliasVar[v] = info
			}
		}
		return true
	})
}

// collectDerived records which local each variable was carved out of:
// the root of an assignment's right-hand side chain.
func (a *analyzer) collectDerived(body *ast.BlockStmt) {
	a.derived = map[*types.Var]*types.Var{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			v := framework.VarOf(a.info, id)
			if v == nil {
				continue
			}
			if root := a.derivationRoot(as.Rhs[i]); root != nil && root != v {
				a.derived[v] = root
			}
		}
		return true
	})
}

// derivationRoot is rootVar restricted for derivation tracking: a chain
// that passes through a call derives from the call's receiver only when
// the callee is a declared //ziv:aliases accessor. An arbitrary helper's
// return value (t.Peer(), t.clone()) is a fresh base — updating its
// mirrors must not discharge the receiver's duty.
func (a *analyzer) derivationRoot(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			if info, ok := a.aliasCall(x); ok {
				return info.base
			}
			return nil
		case *ast.Ident:
			return framework.VarOf(a.info, x)
		default:
			return nil
		}
	}
}

// aliasOf classifies an expression that yields an interior pointer to a
// mirrored structure.
func (a *analyzer) aliasOf(e ast.Expr) (aliasInfo, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return aliasInfo{}, false
		}
		ix, ok := e.X.(*ast.IndexExpr)
		if !ok {
			return aliasInfo{}, false
		}
		if rules, base := a.fieldSpec(ix.X); rules != nil {
			return aliasInfo{rules: rules, base: base, baseParam: a.isParam(base)}, true
		}
	case *ast.CallExpr:
		if info, ok := a.aliasCall(e); ok {
			return info, true
		}
	}
	return aliasInfo{}, false
}

// aliasCall matches a call to an //ziv:aliases accessor (local or
// imported) and reports the aliased rules plus the receiver chain's
// root variable.
func (a *analyzer) aliasCall(call *ast.CallExpr) (aliasInfo, bool) {
	var fn *types.Func
	var recv ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ = a.info.Uses[fun.Sel].(*types.Func)
		recv = fun.X
	case *ast.Ident:
		fn, _ = a.info.Uses[fun].(*types.Func)
	}
	if fn == nil {
		return aliasInfo{}, false
	}
	rules, _ := framework.Fact(a.pass, a.aliasFuncs, aliasesKey, fn, (*types.Func).FullName)
	if rules == nil {
		return aliasInfo{}, false
	}
	info := aliasInfo{rules: rules}
	if recv == nil {
		info.baseParam = true
	} else {
		info.base = a.rootVar(recv)
		info.baseParam = a.rootIsParam(recv)
	}
	return info, true
}

// fieldSpec resolves base.field expressions (bk.slots) to the field's
// rules and the base chain's root variable.
func (a *analyzer) fieldSpec(e ast.Expr) ([]Rule, *types.Var) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	v := framework.FieldVarOf(a.info, sel)
	if v == nil {
		return nil, nil
	}
	rules := a.rulesOf(v)
	if rules == nil {
		return nil, nil
	}
	return rules, a.rootVar(sel.X)
}

// rootVar unwraps selector/index/star/paren/address chains and returns
// the root identifier's variable, or nil.
func (a *analyzer) rootVar(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.Ident:
			return framework.VarOf(a.info, x)
		default:
			return nil
		}
	}
}

// rootIsParam reports whether the root of a chain is a parameter (or
// receiver) of the current function.
func (a *analyzer) rootIsParam(e ast.Expr) bool {
	return a.isParam(a.rootVar(e))
}

func (a *analyzer) isParam(v *types.Var) bool {
	return v != nil && a.params[v]
}

// indexMentions records every identifier mention per node, with the
// root variable of the selector chain each hangs off.
func (a *analyzer) indexMentions() {
	a.nodeMentions = make([][][]mention, len(a.g.Blocks))
	for _, b := range a.g.Blocks {
		nm := make([][]mention, len(b.Nodes))
		for i, n := range b.Nodes {
			// Scan only the header of a RangeStmt node: its body runs in
			// separate blocks and may run zero times, so a mirror update
			// there must not be credited to the header block.
			for _, root := range cfg.ScanRoots(n) {
				nm[i] = append(nm[i], a.mentionsIn(root)...)
			}
		}
		a.nodeMentions[b.Index] = nm
	}
}

// mentionsIn collects the identifier mentions of one subtree. An
// identifier that is the .Sel of a selector records the selector base's
// root variable; bare identifiers record a nil base.
func (a *analyzer) mentionsIn(root ast.Node) []mention {
	selBase := map[*ast.Ident]*types.Var{}
	ast.Inspect(root, func(c ast.Node) bool {
		if sel, ok := c.(*ast.SelectorExpr); ok {
			selBase[sel.Sel] = a.rootVar(sel.X)
		}
		return true
	})
	var out []mention
	ast.Inspect(root, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			out = append(out, mention{name: id.Name, base: selBase[id]})
		}
		return true
	})
	return out
}

// mentionTransfer is the backward transfer function: a block adds its
// own mentions to the must-set flowing in from its end. Order within
// the block is irrelevant — the same-block suffix is handled separately
// by satisfied.
func (a *analyzer) mentionTransfer(b *cfg.Block, out mustSet) mustSet {
	if out.Top {
		return out
	}
	var add []mention
	for _, ms := range a.nodeMentions[b.Index] {
		add = append(add, ms...)
	}
	if len(add) == 0 {
		return out
	}
	return out.With(add...)
}

// canonBase follows the derivation chain to the variable a handle was
// ultimately carved out of (bounded against pathological cycles).
func (a *analyzer) canonBase(v *types.Var) *types.Var {
	for i := 0; v != nil && i < 16; i++ {
		next, ok := a.derived[v]
		if !ok {
			return v
		}
		v = next
	}
	return v
}

// baseCompat matches a mention's base against a requirement's base up
// to intra-function derivation (bk := &l.banks[i] makes bk and l the
// same base); nil on either side is a wildcard.
func (a *analyzer) baseCompat(got, want *types.Var) bool {
	if got == nil || want == nil {
		return true
	}
	return a.canonBase(got) == a.canonBase(want)
}

// satisfied reports whether mirror (with the given requirement base) is
// mentioned at or after (block, idx), or on every path from the block's
// end to the exit.
func (a *analyzer) satisfied(b *cfg.Block, idx int, mirror string, base *types.Var) bool {
	for i := idx; i < len(b.Nodes); i++ {
		for _, mn := range a.nodeMentions[b.Index][i] {
			if mn.name == mirror && a.baseCompat(mn.base, base) {
				return true
			}
		}
	}
	out := a.outs[b.Index]
	if out.Top {
		return true // only panicking paths follow: vacuously discharged
	}
	for mn := range out.M {
		if mn.name == mirror && a.baseCompat(mn.base, base) {
			return true
		}
	}
	return false
}

// checkNode inspects one CFG node for mirrored writes and obligated
// calls.
func (a *analyzer) checkNode(b *cfg.Block, idx int, n ast.Node, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			a.checkWrite(b, idx, lhs, report)
		}
	case *ast.IncDecStmt:
		a.checkWrite(b, idx, n.X, report)
	}
	// Obligated calls can appear anywhere in the node; RangeStmt body
	// statements are their own nodes, so only its header is scanned.
	for _, root := range cfg.ScanRoots(n) {
		ast.Inspect(root, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			a.checkCall(b, idx, call, report)
			return true
		})
	}
}

// write classification results.
type writeTarget struct {
	rules     []Rule
	sub       string // element field written; "" for whole-element
	fieldName string // primary field name, for diagnostics
	base      *types.Var
	baseParam bool
}

// classify resolves an assignment target to a mirrored write, if any.
func (a *analyzer) classify(lhs ast.Expr) (writeTarget, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		// Direct field write: base.field = ... (scalar mirror, or
		// reassigning the primary slice itself).
		if v := framework.FieldVarOf(a.info, lhs); v != nil {
			if rules := a.rulesOf(v); rules != nil {
				root := a.rootVar(lhs.X)
				return writeTarget{rules: rules, fieldName: v.Name(), base: root, baseParam: a.isParam(root)}, true
			}
		}
		// Element-field write through an alias or an indexed field:
		// alias.Sub = ..., base.field[i].Sub = ..., accessor(...).Sub = ...
		if info, name, ok := a.elementBase(lhs.X); ok {
			return writeTarget{rules: info.rules, sub: lhs.Sel.Name, fieldName: name, base: info.base, baseParam: info.baseParam}, true
		}
	case *ast.StarExpr:
		// Whole-element write through a pointer: *alias = ...
		if info, name, ok := a.elementBase(lhs.X); ok {
			return writeTarget{rules: info.rules, fieldName: name, base: info.base, baseParam: info.baseParam}, true
		}
	case *ast.IndexExpr:
		// Whole-element write: base.field[i] = ...
		if rules, root := a.fieldSpec(lhs.X); rules != nil {
			name := "?"
			if sel, ok := ast.Unparen(lhs.X).(*ast.SelectorExpr); ok {
				name = sel.Sel.Name
			}
			return writeTarget{rules: rules, fieldName: name, base: root, baseParam: a.isParam(root)}, true
		}
	}
	return writeTarget{}, false
}

// elementBase resolves an expression denoting one element of a mirrored
// structure: an alias variable, an indexed mirrored field, or an alias
// accessor call.
func (a *analyzer) elementBase(e ast.Expr) (aliasInfo, string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := framework.VarOf(a.info, e); v != nil {
			if info, ok := a.aliasVar[v]; ok {
				return info, e.Name, true
			}
		}
	case *ast.IndexExpr:
		if rules, root := a.fieldSpec(e.X); rules != nil {
			name := "?"
			if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
				name = sel.Sel.Name
			}
			return aliasInfo{rules: rules, base: root, baseParam: a.isParam(root)}, name, true
		}
	case *ast.CallExpr:
		if info, ok := a.aliasCall(e); ok {
			return info, "accessor result", true
		}
	case *ast.StarExpr:
		return a.elementBase(e.X)
	}
	return aliasInfo{}, "", false
}

// requiredMirrors selects which mirrors a write must see updated.
func requiredMirrors(w writeTarget) []string {
	var req []string
	for _, r := range w.rules {
		if w.sub == "" {
			if len(r.On) == 0 {
				req = append(req, r.Mirrors...)
			}
			continue
		}
		for _, f := range r.On {
			if f == w.sub {
				req = append(req, r.Mirrors...)
				break
			}
		}
	}
	return req
}

func (a *analyzer) checkWrite(b *cfg.Block, idx int, lhs ast.Expr, report bool) {
	w, ok := a.classify(lhs)
	if !ok {
		return
	}
	var missing []string
	for _, m := range requiredMirrors(w) {
		if !a.satisfied(b, idx, m, w.base) {
			missing = append(missing, m)
		}
	}
	if len(missing) == 0 {
		return
	}
	desc := "write to " + w.fieldName
	if w.sub != "" {
		desc = "write to " + w.fieldName + "." + w.sub
	}
	a.violation(lhs.Pos(), desc, missing, w.baseParam, report)
}

// checkCall enforces obligations exported by callees: the call site
// counts as the primary write and must be followed by the mirrors the
// callee left stale. The requirement's base is the call's receiver
// chain root, so dst.step() is not discharged by src's mirror update.
func (a *analyzer) checkCall(b *cfg.Block, idx int, call *ast.CallExpr, report bool) {
	fn := framework.CalledFunc(a.info, call)
	if fn == nil {
		return
	}
	mirrors, _ := framework.Fact(a.pass, a.obligations, obligationsKey, fn, (*types.Func).FullName)
	if len(mirrors) == 0 {
		return
	}
	var base *types.Var
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		base = a.rootVar(sel.X)
	}
	var missing []string
	for _, m := range mirrors {
		if !a.satisfied(b, idx, m, base) {
			missing = append(missing, m)
		}
	}
	if len(missing) == 0 {
		return
	}
	// A call's obligation bubbles through unexported callers regardless
	// of argument shape: the stale state lives behind the callee.
	a.violation(call.Pos(), "call to "+fn.Name(), missing, true, report)
}

// violation either reports at the site (exported functions, or writes
// whose base is not caller-supplied) or exports the duty to call sites
// of the current unexported function.
func (a *analyzer) violation(pos token.Pos, desc string, missing []string, paramBased, report bool) {
	if paramBased && !a.fn.Exported() {
		full := a.fn.FullName()
		have := map[string]bool{}
		for _, m := range a.obligations[full] {
			have[m] = true
		}
		changed := false
		for _, m := range missing {
			if !have[m] {
				a.obligations[full] = append(a.obligations[full], m)
				changed = true
			}
		}
		if changed {
			sort.Strings(a.obligations[full])
		}
		return
	}
	if report {
		a.pass.Reportf(pos, "%s leaves sidecar %s stale: no update on every subsequent path",
			desc, strings.Join(missing, ", "))
	}
}
