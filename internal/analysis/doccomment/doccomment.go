// Package doccomment enforces the godoc audit of the repository's
// operational packages: in internal/harness, internal/obs,
// internal/server, internal/telemetry and internal/analysis (the
// packages OPERATIONS.md, docs/cli.md and docs/api.md document
// against), every exported symbol must carry a doc comment —
//
//   - the package itself (one package doc comment somewhere in the
//     package);
//   - exported functions, and exported methods on exported receiver
//     types;
//   - exported types;
//   - exported consts and vars (a group doc on the enclosing const/var
//     block covers its specs);
//   - exported fields of exported struct types, which includes every
//     flag-bearing Options field.
//
// A doc comment is either a leading comment (godoc's Doc) or a trailing
// line comment on the same line, the idiom small const/field declarations
// use. Packages outside the audited prefixes are not checked, so the
// simulator core can keep its own documentation conventions. Test files
// are never analyzed. A finding can be waived with
// //ziv:ignore(doccomment) reason.
package doccomment

import (
	"go/ast"
	"go/token"
	"strings"

	"zivsim/internal/analysis/framework"
)

// Analyzer is the doccomment analysis.
var Analyzer = &framework.Analyzer{
	Name: "doccomment",
	Doc:  "flags undocumented exported symbols in the audited packages (harness, obs, server, telemetry, analysis)",
	Run:  run,
}

// auditedPrefixes are the import-path prefixes whose exported API must be
// fully documented.
var auditedPrefixes = []string{
	"zivsim/internal/harness",
	"zivsim/internal/obs",
	"zivsim/internal/server",
	"zivsim/internal/telemetry",
	"zivsim/internal/analysis",
}

// documents reports whether a comment group actually documents a symbol.
// Analyzer directives (//ziv:ignore, //ziv:mirror, ...) and fixture
// expectations (// want) are machine-directed, not documentation, so a
// waiver comment alone never satisfies the check.
func documents(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		t := c.Text
		switch {
		case strings.HasPrefix(t, "//ziv:"):
		case strings.HasPrefix(t, "// want"), strings.HasPrefix(t, "//want"):
		default:
			return true
		}
	}
	return false
}

func isAudited(path string) bool {
	for _, p := range auditedPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) (any, error) {
	if !isAudited(pass.PkgPath) {
		return nil, nil
	}
	checkPackageDoc(pass)
	exportedTypes := collectExportedTypes(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFunc(pass, d, exportedTypes)
			case *ast.GenDecl:
				checkGenDecl(pass, d)
			}
		}
	}
	return nil, nil
}

// checkPackageDoc requires one package doc comment per package, reported
// at the first file's package clause when absent.
func checkPackageDoc(pass *framework.Pass) {
	if len(pass.Files) == 0 {
		return
	}
	for _, file := range pass.Files {
		if documents(file.Doc) {
			return
		}
	}
	pass.Reportf(pass.Files[0].Package,
		"package %s has no package doc comment; audited packages document their purpose", pass.Pkg.Name())
}

// collectExportedTypes maps the names of exported top-level types, so
// method checks can tell exported receivers from internal ones.
func collectExportedTypes(pass *framework.Pass) map[string]bool {
	out := map[string]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					out[ts.Name.Name] = true
				}
			}
		}
	}
	return out
}

// checkFunc flags undocumented exported functions and undocumented
// exported methods whose receiver type is itself exported (methods on
// internal types are internal API regardless of their name).
func checkFunc(pass *framework.Pass, fn *ast.FuncDecl, exportedTypes map[string]bool) {
	if !fn.Name.IsExported() || documents(fn.Doc) {
		return
	}
	if fn.Recv != nil {
		recv := receiverTypeName(fn.Recv)
		if !exportedTypes[recv] {
			return
		}
		pass.Reportf(fn.Name.Pos(),
			"exported method %s.%s has no doc comment", recv, fn.Name.Name)
		return
	}
	pass.Reportf(fn.Name.Pos(), "exported function %s has no doc comment", fn.Name.Name)
}

// receiverTypeName extracts the base type name of a method receiver.
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) != 1 {
		return ""
	}
	expr := recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if idx, ok := expr.(*ast.IndexExpr); ok { // generic receiver T[P]
		expr = idx.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkGenDecl flags undocumented exported types, consts, vars and — for
// exported struct types — their exported fields.
func checkGenDecl(pass *framework.Pass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !documents(gd.Doc) && !documents(s.Doc) && !documents(s.Comment) {
				pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				checkStructFields(pass, s.Name.Name, st)
			}
		case *ast.ValueSpec:
			if documents(gd.Doc) || documents(s.Doc) || documents(s.Comment) {
				continue
			}
			kind := "var"
			if gd.Tok == token.CONST {
				kind = "const"
			}
			for _, name := range s.Names {
				if name.IsExported() {
					pass.Reportf(name.Pos(), "exported %s %s has no doc comment", kind, name.Name)
				}
			}
		}
	}
}

// checkStructFields flags undocumented exported fields of an exported
// struct type; embedded fields document themselves through their type.
func checkStructFields(pass *framework.Pass, typeName string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if documents(field.Doc) || documents(field.Comment) {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() {
				pass.Reportf(name.Pos(),
					"exported field %s.%s has no doc comment", typeName, name.Name)
			}
		}
	}
}
