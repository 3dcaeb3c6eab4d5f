// Package nodeterminism flags ambient sources of nondeterminism in
// simulation code. Published simulator results must be bit-for-bit
// reproducible from a seed, so:
//
//   - Iterating a map with range in the simulation packages
//     (internal/core, internal/hierarchy, internal/policy,
//     internal/directory) is flagged unless the loop merely collects the
//     keys into a slice (the collect-then-sort idiom). Map iteration
//     order is randomized by the runtime and has repeatedly been the
//     source of run-to-run drift in stats and report paths.
//   - time.Now and time.Since are flagged in every non-main package:
//     wall-clock time must never feed simulated state. Command-line
//     binaries (package main) may time themselves for progress output.
//   - The global math/rand functions (rand.Intn, rand.Shuffle, ...) are
//     flagged in every non-main package: they draw from a process-global
//     source that is seeded outside the simulator's control. Construct
//     an explicit source instead: rand.New(rand.NewSource(seed)).
//
// Test files are never analyzed. A finding can be waived with
// //ziv:ignore(nodeterminism) <reason>.
package nodeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"zivsim/internal/analysis/framework"
)

// Analyzer is the nodeterminism analysis.
var Analyzer = &framework.Analyzer{
	Name: "nodeterminism",
	Doc:  "flags map range iteration, time.Now and global math/rand in simulation code",
	Run:  run,
}

// simPackages are the import-path fragments whose packages hold simulated
// state; map iteration order must not influence them.
var simPackages = []string{
	"internal/core",
	"internal/hierarchy",
	"internal/policy",
	"internal/directory",
}

// globalRandAllowed are the math/rand package-level names that do NOT
// touch the global source; everything else does.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func isSimPackage(path string) bool {
	for _, frag := range simPackages {
		if strings.Contains(path, frag) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) (any, error) {
	isMain := pass.Pkg.Name() == "main"
	simPkg := isSimPackage(pass.PkgPath)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if simPkg {
					checkMapRange(pass, n)
				}
			case *ast.SelectorExpr:
				if !isMain {
					checkAmbient(pass, n)
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkMapRange reports ranging over a map unless the loop only gathers
// keys for later sorting.
func checkMapRange(pass *framework.Pass, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if isKeyCollectLoop(pass, rs) {
		return
	}
	pass.Reportf(rs.For,
		"map iteration order is nondeterministic; sort the keys first (or collect them with `ks = append(ks, k)` and sort)")
}

// isKeyCollectLoop recognizes the accepted pattern: a loop whose entire
// body appends the range key to a slice, i.e. the first half of
// collect-then-sort.
func isKeyCollectLoop(pass *framework.Pass, rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Key == nil || len(rs.Body.List) != 1 {
		return false
	}
	keyIdent, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := pass.TypesInfo.Defs[keyIdent]
	if keyObj == nil {
		keyObj = pass.TypesInfo.Uses[keyIdent]
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	for _, arg := range call.Args[1:] {
		if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == keyObj && keyObj != nil {
			return true
		}
	}
	return false
}

// checkAmbient reports selections of time.Now/time.Since and of global
// math/rand functions.
func checkAmbient(pass *framework.Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			pass.Reportf(sel.Pos(),
				"time.%s in simulation code breaks reproducibility; derive timing from simulated cycles", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[sel.Sel.Name] {
			pass.Reportf(sel.Pos(),
				"global math/rand.%s uses the process-wide source; use rand.New(rand.NewSource(seed)) wired to an explicit seed", sel.Sel.Name)
		}
	}
}
