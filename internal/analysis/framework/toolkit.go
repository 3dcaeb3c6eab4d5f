package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// FuncDecls returns the package's function declarations that have a
// body, in file and declaration order.
func (p *Pass) FuncDecls() []*ast.FuncDecl {
	var fds []*ast.FuncDecl
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fds = append(fds, fd)
			}
		}
	}
	return fds
}

// Fact looks up the fact this analyzer keeps for obj under name(obj):
// in local, this package's map, while obj belongs to the package under
// analysis (its facts are exported only when its pass ends), and else
// in the map[string]V this analyzer exported under key while analyzing
// obj's package. name is called only when the map has entries, so a
// costly key is not built for a package without facts.
func Fact[O types.Object, V any](p *Pass, local map[string]V, key string, obj O, name func(O) string) (V, bool) {
	if pkg := obj.Pkg(); pkg != nil && pkg.Path() != p.PkgPath {
		f, _ := p.ImportFact(pkg.Path(), key)
		local, _ = f.(map[string]V)
	}
	if len(local) == 0 {
		var zero V
		return zero, false
	}
	v, ok := local[name(obj)]
	return v, ok
}

// SolveObligations runs analyze over every function declaration with
// report unset until no round adds to obligations, for at most ten
// rounds, and then once more with report set. An obligation is a duty a
// function hands to its call sites, which may be declared before it, so
// call-site checks need every callee's obligations before reporting.
// analyze only ever appends to obligations, so a round that leaves
// their count unchanged has reached the fixpoint.
func SolveObligations[V any](p *Pass, obligations map[string][]V, analyze func(fd *ast.FuncDecl, report bool)) {
	count := func() int {
		n := 0
		for _, obs := range obligations {
			n += len(obs)
		}
		return n
	}
	for round := 0; round < 10; round++ {
		before := count()
		for _, fd := range p.FuncDecls() {
			analyze(fd, false)
		}
		if count() == before {
			break
		}
	}
	for _, fd := range p.FuncDecls() {
		analyze(fd, true)
	}
}

// CalledFunc returns the function or method a call statically targets,
// or nil for builtins, conversions and calls of function values.
func CalledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// BuiltinName returns the name of the builtin a call invokes ("close",
// "make", ...), or "" when the callee is not a builtin.
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// VarOf returns the variable id declares or refers to, or nil.
func VarOf(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// FieldVarOf returns the struct field a selector selects, or nil for
// methods, qualified identifiers and unresolved selectors.
func FieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		v, _ := s.Obj().(*types.Var)
		return v
	}
	return nil
}

// Params returns the variables a receiver or parameter list declares,
// by position; an unnamed parameter holds its position with nil.
func Params(info *types.Info, fl *ast.FieldList) []*types.Var {
	if fl == nil {
		return nil
	}
	var vars []*types.Var
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			vars = append(vars, nil)
		}
		for _, name := range f.Names {
			v, _ := info.Defs[name].(*types.Var)
			vars = append(vars, v)
		}
	}
	return vars
}

// IsPkgLevel reports whether v is a package-level variable.
func IsPkgLevel(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// IsNamed reports whether t, or the type t points to, is a named type
// declared in the package with import path pkg and, when names is not
// empty, called one of names.
func IsNamed(t types.Type, pkg string, names ...string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != pkg {
		return false
	}
	return len(names) == 0 || slices.Contains(names, n.Obj().Name())
}

// OwnerTypeName returns the package-level named struct type declaring
// field v, or "".
func OwnerTypeName(v *types.Var) string {
	if v.Pkg() == nil {
		return ""
	}
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return name
			}
		}
	}
	return ""
}

// FieldKey names struct field v as "pkgpath.Type.Field" for facts, or
// returns "" when no package-level type declares it. The exporting and
// the importing pass each resolve their own field object against their
// own view of the package, so the key is stable across the export-data
// boundary where object pointers are not.
func FieldKey(v *types.Var) string {
	tn := OwnerTypeName(v)
	if tn == "" {
		return ""
	}
	return v.Pkg().Path() + "." + tn + "." + v.Name()
}

// Chain resolves a selector chain to its root variable and the dotted
// field path from that root ("" for the root itself), looking through
// parens, dereferences and address-of. Indexing collapses to a "[]"
// marker, so two elements of one collection share an identity, a
// deliberate coarsening. A qualified identifier pkg.Var is its own
// root. Chains through calls or other opaque expressions fail.
func Chain(info *types.Info, e ast.Expr) (root *types.Var, path string, ok bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return Chain(info, x.X)
	case *ast.StarExpr:
		return Chain(info, x.X)
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return nil, "", false
		}
		return Chain(info, x.X)
	case *ast.IndexExpr:
		root, path, ok = Chain(info, x.X)
		if !ok {
			return nil, "", false
		}
		return root, path + "[]", true
	case *ast.SelectorExpr:
		if id, isIdent := ast.Unparen(x.X).(*ast.Ident); isIdent {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, isVar := info.Uses[x.Sel].(*types.Var); isVar {
					return v, "", true
				}
				return nil, "", false
			}
		}
		root, path, ok = Chain(info, x.X)
		if !ok {
			return nil, "", false
		}
		return root, JoinPath(path, x.Sel.Name), true
	case *ast.Ident:
		if v := VarOf(info, x); v != nil {
			return v, "", true
		}
	}
	return nil, "", false
}

// JoinPath appends field name to a dotted path.
func JoinPath(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}
