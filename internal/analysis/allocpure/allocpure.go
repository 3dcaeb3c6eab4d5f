// Package allocpure enforces allocation-free hot paths. Functions
// annotated //ziv:noalloc — the fill/evict/victim paths the benchmarks
// guard with testing.AllocsPerRun — must not contain constructs that
// heap-allocate on the steady-state path:
//
//   - map and slice composite literals, &T{} literals
//   - make, new, and append
//   - closures that capture locals and escape (returned, stored, or
//     passed away); immediately-invoked closures, locally-called-only
//     closures, and literals passed to such local closures are exempt
//   - allocation sites inside an escaping closure's own body — the
//     closure may run on the hot path even though its statements are
//     not inline in the function's CFG, so they are attributed to the
//     enclosing //ziv:noalloc function (panic paths inside the body
//     stay exempt)
//   - conversions of non-pointer-shaped concrete values to interfaces
//   - calls to functions known to allocate, interprocedurally: local
//     summaries iterate to a package fixpoint, cross-package summaries
//     travel as facts, and a small table covers the obvious stdlib
//     offenders (fmt, strconv formatting, sort.Slice)
//   - dynamic interface-method calls, resolved by joining the alloc
//     verdicts of every in-module implementation of the interface; a
//     //ziv:noalloc annotation on the interface method overrides the
//     join and instead makes every implementation individually
//     accountable — an annotated method's implementation that
//     allocates is reported at its declaration. A join over zero
//     in-module implementations is vacuous, not clean, and is reported
//     at the call site: annotate the method or dispatch concretely.
//     The vacuous-join report is limited to interfaces whose defining
//     package's summaries are in view (the analyzed package or an
//     import analyzed in the same run) — interfaces from the standard
//     library or from outside a partial-scope run are trusted, since
//     an empty join there means "not visible", not "does not exist"
//
// Panic paths are exempt: an allocation inside a guard whose block
// never reaches the function exit (it ends in panic or os.Exit) is
// error-construction on the failure path, not steady-state cost. The
// check rides the same CFG the sidecar analysis uses, so "never reaches
// the exit" is decided structurally, not by pattern-matching if bodies.
package allocpure

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"zivsim/internal/analysis/cfg"
	"zivsim/internal/analysis/framework"
)

// Analyzer is the allocpure analysis.
var Analyzer = &framework.Analyzer{
	Name: "allocpure",
	Doc:  "//ziv:noalloc functions must not heap-allocate on non-panic paths",
	Run:  run,
}

// allocsKey is the per-package fact: function full name → allocates.
// noallocIfaceKey is the per-package fact listing interface methods
// annotated //ziv:noalloc, keyed "pkgpath.Iface.Method".
const (
	allocsKey       = "allocs"
	noallocIfaceKey = "noallocmethods"
)

var noallocRe = regexp.MustCompile(`^//\s*ziv:noalloc\b`)

// stdlibAllocs lists standard-library functions that always allocate.
// The loader does not type-check the standard library's bodies, so
// these cannot be summarized; the table covers what simulator code
// plausibly reaches for.
var stdlibAllocs = map[string]bool{
	"errors.New":         true,
	"fmt.Errorf":         true,
	"fmt.Fprint":         true,
	"fmt.Fprintf":        true,
	"fmt.Fprintln":       true,
	"fmt.Print":          true,
	"fmt.Printf":         true,
	"fmt.Println":        true,
	"fmt.Sprint":         true,
	"fmt.Sprintf":        true,
	"fmt.Sprintln":       true,
	"sort.Slice":         true,
	"sort.SliceStable":   true,
	"sort.Stable":        true,
	"strconv.FormatInt":  true,
	"strconv.FormatUint": true,
	"strconv.Itoa":       true,
	"strconv.Quote":      true,
	"strings.Join":       true,
	"strings.Repeat":     true,
}

type analyzer struct {
	pass *framework.Pass
	info *types.Info
	// allocs summarizes every function in this package: does its body
	// contain an allocation site on a non-panic path?
	allocs map[string]bool
	// noallocIface holds this package's annotated interface methods,
	// keyed "pkgpath.Iface.Method".
	noallocIface map[string]bool
	// methodDecl records where each local function is declared, for
	// interface-contract reports.
	methodDecl map[string]token.Pos
}

func run(pass *framework.Pass) (any, error) {
	a := &analyzer{
		pass:         pass,
		info:         pass.TypesInfo,
		allocs:       map[string]bool{},
		noallocIface: map[string]bool{},
		methodDecl:   map[string]token.Pos{},
	}
	a.collectNoallocIfaces()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, _ := a.info.Defs[fd.Name].(*types.Func); fn != nil {
					a.methodDecl[fn.FullName()] = fd.Name.Pos()
				}
			}
		}
	}

	// Summaries feed call-site checks, and local call chains need the
	// callee's verdict before the caller's; iterate to a fixpoint (the
	// verdict only flips false→true, so this terminates fast).
	for {
		changed := false
		for _, fd := range pass.FuncDecls() {
			fn, _ := a.info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			got := a.analyzeFunc(fd, fn, false)
			if got && !a.allocs[fn.FullName()] {
				a.allocs[fn.FullName()] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Report pass over the annotated functions only.
	for _, fd := range pass.FuncDecls() {
		fn, _ := a.info.Defs[fd.Name].(*types.Func)
		if fn == nil || !isNoalloc(fd) {
			continue
		}
		a.analyzeFunc(fd, fn, true)
	}

	a.enforceContracts()

	pass.ExportFact(allocsKey, a.allocs)
	pass.ExportFact(noallocIfaceKey, a.noallocIface)
	return nil, nil
}

// collectNoallocIfaces gathers //ziv:noalloc annotations from interface
// method declarations in this package.
func (a *analyzer) collectNoallocIfaces() {
	for _, file := range a.pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				for _, m := range it.Methods.List {
					if m.Doc == nil || len(m.Names) == 0 {
						continue
					}
					for _, c := range m.Doc.List {
						if noallocRe.MatchString(c.Text) {
							a.noallocIface[a.pass.PkgPath+"."+ts.Name.Name+"."+m.Names[0].Name] = true
						}
					}
				}
			}
		}
	}
}

// enforceContracts reports local implementations of //ziv:noalloc
// interface methods that allocate: the annotation moves accountability
// from the dynamic call site to each implementation's declaration.
func (a *analyzer) enforceContracts() {
	if a.pass.Pkg == nil {
		return
	}
	type contract struct {
		it    *types.Interface
		meth  string
		label string
	}
	var contracts []contract
	addKeys := func(pkg *types.Package, keys map[string]bool) {
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			rest := strings.TrimPrefix(k, pkg.Path()+".")
			parts := strings.SplitN(rest, ".", 2)
			if len(parts) != 2 {
				continue
			}
			tn, ok := pkg.Scope().Lookup(parts[0]).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			contracts = append(contracts, contract{it: it, meth: parts[1], label: rest})
		}
	}
	addKeys(a.pass.Pkg, a.noallocIface)
	imports := append([]*types.Package(nil), a.pass.Pkg.Imports()...)
	sort.Slice(imports, func(i, j int) bool { return imports[i].Path() < imports[j].Path() })
	for _, imp := range imports {
		if f, ok := a.pass.ImportFact(imp.Path(), noallocIfaceKey); ok {
			if m, ok := f.(map[string]bool); ok {
				addKeys(imp, m)
			}
		}
	}
	if len(contracts) == 0 {
		return
	}
	scope := a.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		for _, c := range contracts {
			if !types.Implements(named, c.it) && !types.Implements(types.NewPointer(named), c.it) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, a.pass.Pkg, c.meth)
			m, ok := obj.(*types.Func)
			if !ok || m.Pkg() == nil || m.Pkg().Path() != a.pass.PkgPath {
				continue
			}
			if !a.allocs[m.FullName()] {
				continue
			}
			pos, ok := a.methodDecl[m.FullName()]
			if !ok {
				continue
			}
			a.pass.Reportf(pos, "%s allocates but implements //ziv:noalloc interface method %s", m.Name(), c.label)
		}
	}
}

func isNoalloc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if noallocRe.MatchString(c.Text) {
			return true
		}
	}
	return false
}

// analyzeFunc walks fd's non-panic CFG blocks for allocation sites.
// With report set it emits diagnostics; either way it returns whether
// any site was found (the function's summary verdict).
func (a *analyzer) analyzeFunc(fd *ast.FuncDecl, fn *types.Func, report bool) bool {
	g := cfg.New(fd.Body)
	pd := g.PostDominators()
	clean := a.cleanClosures(fd.Body)

	found := false
	w := &walker{
		a:      a,
		fd:     fd,
		sig:    fn.Type().(*types.Signature),
		clean:  clean,
		report: report,
		hit:    func() { found = true },
	}
	for _, b := range g.Blocks {
		if !pd.Reaches(b) {
			continue // panic path: error construction is exempt
		}
		for _, n := range b.Nodes {
			for _, root := range cfg.ScanRoots(n) {
				w.walk(root)
			}
		}
	}
	return found
}

// cleanClosures marks FuncLits that do not count as escaping: those
// immediately invoked, and those bound once to a local variable that is
// only ever called.
func (a *analyzer) cleanClosures(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	clean := map[*ast.FuncLit]bool{}

	// Idents appearing in call position (fn(), defer fn(), go fn()).
	called := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			clean[lit] = true // immediately invoked: runs inline
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			called[id] = true
		}
		return true
	})

	cleanVars := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := a.info.Defs[id].(*types.Var)
			if !ok {
				continue
			}
			if a.onlyCalled(body, v, called) {
				clean[lit] = true
				cleanVars[v] = true
			}
		}
		return true
	})

	// Literal arguments to calls of those variables run inline too: the
	// callee is a local closure that never escapes, so a func-typed
	// argument cannot outlive the call either. gc's inliner flattens the
	// whole pattern (verified with -gcflags=-m on the victim-scan
	// helpers), so no environment is allocated.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || !cleanVars[a.info.Uses[id]] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				clean[lit] = true
			}
		}
		return true
	})
	return clean
}

// onlyCalled reports whether every use of v is in call position.
func (a *analyzer) onlyCalled(body *ast.BlockStmt, v *types.Var, called map[*ast.Ident]bool) bool {
	ok := true
	ast.Inspect(body, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || a.info.Uses[id] != types.Object(v) {
			return true
		}
		if !called[id] {
			ok = false
		}
		return true
	})
	return ok
}

// walker visits one CFG node's subtree looking for allocation sites.
type walker struct {
	a      *analyzer
	fd     *ast.FuncDecl
	sig    *types.Signature
	clean  map[*ast.FuncLit]bool
	report bool
	hit    func()
}

func (w *walker) found(pos token.Pos, format string, args ...any) {
	w.hit()
	if w.report {
		w.a.pass.Reportf(pos, format, args...)
	}
}

func (w *walker) walk(n ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.CompositeLit:
			switch w.a.info.TypeOf(c).Underlying().(type) {
			case *types.Map:
				w.found(c.Pos(), "map literal allocates in //ziv:noalloc function")
			case *types.Slice:
				w.found(c.Pos(), "slice literal allocates in //ziv:noalloc function")
			}
		case *ast.UnaryExpr:
			if c.Op == token.AND {
				if _, ok := ast.Unparen(c.X).(*ast.CompositeLit); ok {
					w.found(c.Pos(), "composite literal escapes to the heap in //ziv:noalloc function")
				}
			}
		case *ast.FuncLit:
			litSig, _ := w.a.info.TypeOf(c).(*types.Signature)
			if litSig == nil {
				litSig = w.sig
			}
			sub := &walker{a: w.a, fd: w.fd, sig: litSig, clean: w.clean, report: w.report, hit: w.hit}
			if w.clean[c] {
				// Runs inline: its allocations are the function's own.
				// The sub-walker carries the literal's signature so its
				// return statements check against the right results.
				sub.walk(c.Body)
				return false
			}
			if w.captures(c) {
				w.found(c.Pos(), "escaping closure allocates in //ziv:noalloc function")
			}
			if w.report {
				// The body runs later but possibly on the hot path:
				// attribute its allocation sites to the enclosing
				// annotated function. Report-pass only — an ordinary
				// function that merely builds an allocating closure
				// does not itself allocate per call of the closure, so
				// the summary verdict stays body-blind.
				sub.walkEscaping(c.Body)
			}
			return false // statements handled by the sub-walker above
		case *ast.CallExpr:
			w.call(c)
		case *ast.AssignStmt:
			if c.Tok == token.ASSIGN && len(c.Lhs) == len(c.Rhs) {
				for i := range c.Lhs {
					w.ifaceConv(c.Rhs[i], w.a.info.TypeOf(c.Lhs[i]))
				}
			}
		case *ast.ReturnStmt:
			res := w.sig.Results()
			if len(c.Results) == res.Len() {
				for i, r := range c.Results {
					w.ifaceConv(r, res.At(i).Type())
				}
			}
		}
		return true
	})
}

// call checks one call expression: allocating builtins, explicit
// interface conversions, interface-typed arguments, and callees whose
// summary (local, imported, or stdlib table) says they allocate.
func (w *walker) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if name := framework.BuiltinName(w.a.info, call); name != "" {
		switch name {
		case "make":
			w.found(call.Pos(), "make allocates in //ziv:noalloc function")
		case "new":
			w.found(call.Pos(), "new allocates in //ziv:noalloc function")
		case "append":
			w.found(call.Pos(), "append may reallocate in //ziv:noalloc function")
		}
		return
	}

	// Explicit conversion T(x).
	if tv, ok := w.a.info.Types[fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			w.ifaceConv(arg, tv.Type)
		}
		return
	}

	// Interface-typed parameters box their arguments.
	if sig, ok := w.a.info.TypeOf(fun).(*types.Signature); ok && sig != nil {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt != nil {
				w.ifaceConv(arg, pt)
			}
		}
	}

	// Known-allocating callees.
	fn := framework.CalledFunc(w.a.info, call)
	if fn == nil {
		return
	}
	if isInterfaceMethod(fn) {
		w.ifaceCall(call, fn)
		return
	}
	if stdlibAllocs[fullName(fn)] || w.a.allocates(fn) {
		w.found(call.Pos(), "call to %s allocates in //ziv:noalloc function", fn.Name())
	}
}

// walkEscaping scans an escaping closure's body for allocation sites.
// The body gets its own CFG so panic paths inside the closure keep the
// same exemption the enclosing function enjoys.
func (w *walker) walkEscaping(body *ast.BlockStmt) {
	g := cfg.New(body)
	pd := g.PostDominators()
	for _, b := range g.Blocks {
		if !pd.Reaches(b) {
			continue // panic path inside the closure: exempt
		}
		for _, n := range b.Nodes {
			for _, root := range cfg.ScanRoots(n) {
				w.walk(root)
			}
		}
	}
}

// ifaceCall resolves a dynamic interface-method call by joining the
// alloc verdicts of every known implementation. A //ziv:noalloc
// annotation on the interface method overrides the join: the contract
// is enforced at each implementation's declaration instead, so the
// call site is trusted.
func (w *walker) ifaceCall(call *ast.CallExpr, fn *types.Func) {
	if w.a.noallocMethod(fn) {
		return
	}
	impls := w.a.implementations(fn)
	if len(impls) == 0 {
		if !w.a.summarized(fn.Pkg()) {
			// The interface comes from a package with no alloc summaries
			// in view — the standard library, or a dependency outside a
			// partial-scope run. implementations() could not have seen
			// its satisfying types, so an empty join means "not visible",
			// not "does not exist"; trust the call as before.
			return
		}
		// Nothing to join: a verdict built from zero implementations is
		// vacuous, not clean. Surface it rather than silently trusting
		// the call — the fix is a //ziv:noalloc annotation on the
		// interface method (each future implementation then answers for
		// itself) or concrete dispatch.
		w.found(call.Pos(), "dynamic call to %s joins zero in-module implementations in //ziv:noalloc function: annotate the interface method //ziv:noalloc or dispatch concretely", fn.Name())
		return
	}
	for _, impl := range impls {
		if w.a.allocates(impl) {
			w.found(call.Pos(), "dynamic call to %s may allocate in //ziv:noalloc function (%s allocates)", fn.Name(), impl.FullName())
			return
		}
	}
}

// isInterfaceMethod reports whether fn is declared on an interface, so
// calls to it dispatch dynamically.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// summarized reports whether pkg's alloc verdicts are visible to this
// pass: it is the package under analysis, or an import analyzed in the
// same run (every analyzed package exports an allocs fact, even an
// empty one).
func (a *analyzer) summarized(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	if pkg.Path() == a.pass.PkgPath {
		return true
	}
	_, ok := a.pass.ImportFact(pkg.Path(), allocsKey)
	return ok
}

// implementations enumerates the concrete methods satisfying fn's
// interface among package-scope named types of this package and of
// every analyzed import (imports without an allocs fact — the standard
// library — have no summaries to join and are skipped). Order is
// deterministic: local scope first, then imports by path.
func (a *analyzer) implementations(fn *types.Func) []*types.Func {
	if a.pass.Pkg == nil {
		return nil
	}
	it, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	pkgs := []*types.Package{a.pass.Pkg}
	imports := append([]*types.Package(nil), a.pass.Pkg.Imports()...)
	sort.Slice(imports, func(i, j int) bool { return imports[i].Path() < imports[j].Path() })
	for _, imp := range imports {
		if _, ok := a.pass.ImportFact(imp.Path(), allocsKey); ok {
			pkgs = append(pkgs, imp)
		}
	}

	var impls []*types.Func
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pkg, fn.Name())
			if m, ok := obj.(*types.Func); ok {
				impls = append(impls, m)
			}
		}
	}
	return impls
}

// allocates looks up a function's verdict: the local summary map for
// this package, the allocs fact for imports.
func (a *analyzer) allocates(fn *types.Func) bool {
	v, _ := framework.Fact(a.pass, a.allocs, allocsKey, fn, (*types.Func).FullName)
	return v
}

// noallocMethod reports whether the interface method fn carries a
// //ziv:noalloc annotation, locally or in the declaring package's fact.
func (a *analyzer) noallocMethod(fn *types.Func) bool {
	v, _ := framework.Fact(a.pass, a.noallocIface, noallocIfaceKey, fn, ifaceKey)
	return v
}

// ifaceKey renders an interface method as "pkgpath.Iface.Method",
// matching the noallocmethods fact encoding.
func ifaceKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return ""
	}
	named, ok := sig.Recv().Type().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// ifaceConv flags the boxing of a non-pointer-shaped concrete value
// into an interface.
func (w *walker) ifaceConv(expr ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	et := w.a.info.TypeOf(expr)
	if et == nil || types.IsInterface(et) {
		return
	}
	if tv, ok := w.a.info.Types[expr]; ok && tv.IsNil() {
		return
	}
	if pointerShaped(et) {
		return
	}
	w.found(expr.Pos(), "interface conversion boxes %s in //ziv:noalloc function", et.String())
}

// pointerShaped reports whether values of t are stored directly in an
// interface word without boxing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// captures reports whether the closure references variables declared in
// the enclosing function (globals and its own locals don't force an
// environment allocation).
func (w *walker) captures(lit *ast.FuncLit) bool {
	capt := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.a.info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if v.Pos() >= w.fd.Pos() && v.Pos() < lit.Pos() {
			capt = true
		}
		return true
	})
	return capt
}

// fullName renders package functions as pkg.Name (matching the stdlib
// table) and methods via types.Func.FullName.
func fullName(fn *types.Func) string {
	if fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.FullName()
}
