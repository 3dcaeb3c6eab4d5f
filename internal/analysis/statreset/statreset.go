// Package statreset catches the classic silent-metrics bug: a counter
// field is added to a Stats struct, but the struct's Reset (or Snapshot)
// method — which the harness calls between the warmup and measured
// segments — is not updated, so the new counter silently carries warmup
// noise into reported results.
//
// For every struct type whose name ends in "Stats" and that has a Reset
// or Snapshot method, each field must be covered by one of:
//
//   - a whole-struct assignment through the receiver (*s = Stats{}),
//     which zeroes every present and future field and is the recommended
//     pattern;
//   - a direct assignment to the field (s.Hits = 0, s.Hist[i] = 0, or
//     an assignment to a nested member);
//   - a method call on the field (s.Sub.Reset()).
//
// Structs without a Reset/Snapshot method are not checked. A finding can
// be waived with //ziv:ignore(statreset) <reason>.
package statreset

import (
	"go/ast"
	"strings"

	"zivsim/internal/analysis/framework"
)

// Analyzer is the statreset analysis.
var Analyzer = &framework.Analyzer{
	Name: "statreset",
	Doc:  "flags Stats struct fields that the struct's Reset/Snapshot method does not zero",
	Run:  run,
}

// statsType is one *Stats struct declaration and its reset coverage.
type statsType struct {
	spec    *ast.TypeSpec
	st      *ast.StructType
	methods []*ast.FuncDecl // Reset and/or Snapshot
	whole   bool            // a *recv = ... assignment covers everything
	covered map[string]bool
}

func run(pass *framework.Pass) (any, error) {
	stats := map[string]*statsType{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Stats") {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					stats[ts.Name.Name] = &statsType{spec: ts, st: st, covered: map[string]bool{}}
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || fn.Body == nil {
				continue
			}
			if fn.Name.Name != "Reset" && fn.Name.Name != "Snapshot" {
				continue
			}
			if s, ok := stats[recvTypeName(fn.Recv.List[0].Type)]; ok {
				s.methods = append(s.methods, fn)
			}
		}
	}
	for _, s := range stats {
		if len(s.methods) == 0 {
			continue
		}
		for _, fn := range s.methods {
			collectCoverage(pass, s, fn)
		}
		if s.whole {
			continue
		}
		for _, field := range s.st.Fields.List {
			for _, name := range field.Names {
				if !s.covered[name.Name] {
					pass.Reportf(name.Pos(),
						"counter %s.%s is not zeroed by the type's Reset/Snapshot method; warmup noise will leak into measured statistics (prefer *s = %s{})",
						s.spec.Name.Name, name.Name, s.spec.Name.Name)
				}
			}
		}
	}
	return nil, nil
}

// recvTypeName extracts the base type name of a method receiver.
func recvTypeName(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// collectCoverage records which fields a Reset/Snapshot body touches.
func collectCoverage(pass *framework.Pass, s *statsType, fn *ast.FuncDecl) {
	recvNames := map[string]bool{}
	for _, name := range fn.Recv.List[0].Names {
		recvNames[name.Name] = true
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && recvNames[id.Name]
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if star, ok := lhs.(*ast.StarExpr); ok && isRecv(star.X) {
					s.whole = true
					continue
				}
				if f := rootField(lhs, isRecv); f != "" {
					s.covered[f] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if f := rootField(sel.X, isRecv); f != "" {
					s.covered[f] = true
				}
			}
		}
		return true
	})
}

// rootField walks an lvalue like s.Hist[i] or s.Sub.Count down to the
// receiver's direct field name, or "".
func rootField(expr ast.Expr, isRecv func(ast.Expr) bool) string {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if isRecv(e.X) {
				return e.Sel.Name
			}
			expr = e.X
		default:
			return ""
		}
	}
}
