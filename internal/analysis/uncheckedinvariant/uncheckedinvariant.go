// Package uncheckedinvariant enforces the hierarchy's debug-check
// discipline: every exported entry point of zivsim/internal/hierarchy
// that mutates LLC or sparse-directory state must have, on some call
// path, a CheckInvariants/CheckInclusion call gated by a DebugChecks
// condition. Without such a path, a DebugChecks soak run would silently
// skip validating the state transitions that entry point performs — the
// ZIV guarantee would be asserted but never audited.
//
// The analysis is a per-package call-graph fixed point:
//
//   - a function "mutates" when it calls a non-read-only method of
//     core.LLC or directory.Directory (Access, Fill, MarkNotInPrC,
//     Lookup, Allocate, Free, ...), assigns through one of their fields,
//     or calls a same-package function that mutates;
//   - a function is "gated" when an if statement whose condition
//     mentions DebugChecks leads (possibly through same-package calls)
//     to CheckInvariants or CheckInclusion, or when it calls a
//     same-package function that is gated.
//
// Exported mutating functions that are not gated are flagged. Functions
// whose own name starts with "Check" are exempt (they are the checkers).
// A finding can be waived with //ziv:ignore(uncheckedinvariant)
// <reason>.
package uncheckedinvariant

import (
	"go/ast"
	"go/types"
	"strings"

	"zivsim/internal/analysis/framework"
)

// Analyzer is the uncheckedinvariant analysis.
var Analyzer = &framework.Analyzer{
	Name: "uncheckedinvariant",
	Doc:  "flags exported hierarchy entry points that mutate LLC/directory state without a DebugChecks-gated invariant check path",
	Run:  run,
}

// readOnly lists the methods of each guarded type that do not mutate
// simulated state. Any method not listed is treated as a mutator, so new
// mutators are guarded by default.
var readOnly = map[string]map[string]bool{
	"LLC": {
		"Config": true, "Sets": true, "SizeBytes": true, "BankOf": true,
		"SetOf": true, "BlockAt": true, "Probe": true, "ValidCount": true,
		"ForEachValid": true, "CheckInvariants": true, "RelocTargetSkew": true,
		// SetObserver stores a probe pointer and RelocationsLandedByBank
		// sums counters: neither touches simulated cache state (the
		// golden byte-identity tests pin that obs attachment changes no
		// decision), so neither needs a DebugChecks path.
		"SetObserver": true, "RelocationsLandedByBank": true,
	},
	"Directory": {
		"Config": true, "SliceOf": true, "At": true, "Find": true,
		"Tracked": true, "OverflowPtr": true, "OverflowCount": true,
		"ValidCount": true, "ForEach": true,
		"SetObserver": true,
	},
}

// guardedType returns "LLC" or "Directory" when t is (a pointer to) one
// of the guarded named types, else "".
func guardedType(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	name, path := named.Obj().Name(), named.Obj().Pkg().Path()
	if name == "LLC" && strings.HasSuffix(path, "internal/core") {
		return name
	}
	if name == "Directory" && strings.HasSuffix(path, "internal/directory") {
		return name
	}
	return ""
}

// funcFacts holds the per-function flags the fixed point computes.
type funcFacts struct {
	decl *ast.FuncDecl
	// directMutate: touches LLC/directory state in this body.
	directMutate bool
	// directCheck: calls CheckInvariants/CheckInclusion in this body.
	directCheck bool
	// directGated: has a DebugChecks-conditioned path in this body that
	// reaches a check (possibly via a callee with callsCheck).
	directGated bool
	// gatedCallees are callees appearing under a DebugChecks condition.
	gatedCallees []types.Object
	// callees are all same-package callees (any position).
	callees []types.Object

	mutates    bool
	callsCheck bool
	gated      bool
}

func run(pass *framework.Pass) (any, error) {
	if !strings.Contains(pass.PkgPath, "internal/hierarchy") {
		return nil, nil
	}
	facts := map[types.Object]*funcFacts{}
	var order []types.Object
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			facts[obj] = gather(pass, fn)
			order = append(order, obj)
		}
	}

	// Fixed point over the same-package call graph.
	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			f := facts[obj]
			mutates := f.directMutate
			callsCheck := f.directCheck
			gated := f.directGated
			for _, callee := range f.callees {
				if cf := facts[callee]; cf != nil {
					mutates = mutates || cf.mutates
					callsCheck = callsCheck || cf.callsCheck
					gated = gated || cf.gated
				}
			}
			for _, callee := range f.gatedCallees {
				if cf := facts[callee]; cf != nil && cf.callsCheck {
					gated = true
				}
			}
			if mutates != f.mutates || callsCheck != f.callsCheck || gated != f.gated {
				f.mutates, f.callsCheck, f.gated = mutates, callsCheck, gated
				changed = true
			}
		}
	}

	for _, obj := range order {
		f := facts[obj]
		name := f.decl.Name.Name
		if !f.decl.Name.IsExported() || strings.HasPrefix(name, "Check") {
			continue
		}
		if f.mutates && !f.gated {
			pass.Reportf(f.decl.Name.Pos(),
				"exported %s mutates LLC/directory state but no path performs a DebugChecks-gated CheckInvariants/CheckInclusion", name)
		}
	}
	return nil, nil
}

// gather extracts the direct facts of one function body.
func gather(pass *framework.Pass, fn *ast.FuncDecl) *funcFacts {
	f := &funcFacts{decl: fn}
	var inGated int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if mentionsDebugChecks(n.Cond) {
				ast.Inspect(n.Cond, walk)
				if n.Init != nil {
					ast.Inspect(n.Init, walk)
				}
				inGated++
				ast.Inspect(n.Body, walk)
				inGated--
				if n.Else != nil {
					ast.Inspect(n.Else, walk)
				}
				return false
			}
		case *ast.CallExpr:
			f.recordCall(pass, n, inGated > 0)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if tv, ok := pass.TypesInfo.Types[sel.X]; ok && guardedType(tv.Type) != "" {
						f.directMutate = true
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
	return f
}

// recordCall classifies one call expression.
func (f *funcFacts) recordCall(pass *framework.Pass, call *ast.CallExpr, gated bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "CheckInvariants" || name == "CheckInclusion" {
			f.directCheck = true
			if gated {
				f.directGated = true
			}
			return
		}
		if selection, ok := pass.TypesInfo.Selections[fun]; ok && selection.Kind() == types.MethodVal {
			if g := guardedType(selection.Recv()); g != "" && !readOnly[g][name] {
				f.directMutate = true
				return
			}
		}
		// Same-package method call (e.g. m.step(...)).
		if obj := pass.TypesInfo.Uses[fun.Sel]; obj != nil && obj.Pkg() == pass.Pkg {
			f.callees = append(f.callees, obj)
			if gated {
				f.gatedCallees = append(f.gatedCallees, obj)
			}
		}
	case *ast.Ident:
		if fun.Name == "CheckInvariants" || fun.Name == "CheckInclusion" {
			f.directCheck = true
			if gated {
				f.directGated = true
			}
			return
		}
		if obj := pass.TypesInfo.Uses[fun]; obj != nil && obj.Pkg() == pass.Pkg {
			if _, isFunc := obj.(*types.Func); isFunc {
				f.callees = append(f.callees, obj)
				if gated {
					f.gatedCallees = append(f.gatedCallees, obj)
				}
			}
		}
	}
}

// mentionsDebugChecks reports whether an identifier or field named
// DebugChecks appears in expr.
func mentionsDebugChecks(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "DebugChecks" {
			found = true
		}
		return !found
	})
	return found
}
