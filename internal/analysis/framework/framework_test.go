package framework

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parsePkg type-checks one in-memory file into a framework Package.
func parsePkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("example.com/p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{PkgPath: "example.com/p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// varReporter flags every package-level var declaration.
var varReporter = &Analyzer{
	Name: "varcheck",
	Doc:  "test analyzer: reports every top-level var",
	Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					pass.Reportf(gd.Pos(), "top-level var")
				}
			}
		}
		return nil, nil
	},
}

// TestIgnoreDirectiveSuppression covers waiver placement (the line
// above, the same line), a waiver naming another analyzer, and the
// retired //zivlint:ignore spelling, which is an ordinary comment.
func TestIgnoreDirectiveSuppression(t *testing.T) {
	pkg := parsePkg(t, `package p

var flagged = 1

//ziv:ignore(varcheck) intentional test waiver
var waivedAbove = 2

var waivedSameLine = 3 //ziv:ignore(varcheck) same-line waiver

//ziv:ignore(otherchck) wrong analyzer name
var stillFlagged = 4

//zivlint:ignore varcheck retired spelling waives nothing
var legacyFlagged = 5
`)
	res, err := RunAnalyzer(varReporter, pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	diags := res.Diags
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics %v, want 3 (waived lines suppressed)", len(diags), diags)
	}
	if diags[0].Pos.Line != 3 || diags[1].Pos.Line != 11 || diags[2].Pos.Line != 14 {
		t.Errorf("diagnostics at lines %d,%d,%d; want 3,11,14", diags[0].Pos.Line, diags[1].Pos.Line, diags[2].Pos.Line)
	}
	if !strings.Contains(diags[0].String(), "(varcheck)") {
		t.Errorf("diagnostic %q does not name its analyzer", diags[0])
	}
	if len(res.Suppressed) != 2 {
		t.Fatalf("got %d suppressed %v, want 2", len(res.Suppressed), res.Suppressed)
	}
}

func TestZivIgnoreDirective(t *testing.T) {
	pkg := parsePkg(t, `package p

//ziv:ignore(varcheck) intentional waiver
var waived = 1

//ziv:ignore(otherchck, varcheck) multi-name waiver
var waivedMulti = 2

var flagged = 3

//ziv:ignore(otherchck) wrong analyzer
var stillFlagged = 4
`)
	res, err := RunAnalyzer(varReporter, pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 2 {
		t.Fatalf("got diagnostics %v, want 2", res.Diags)
	}
	if res.Diags[0].Pos.Line != 9 || res.Diags[1].Pos.Line != 12 {
		t.Errorf("diagnostics at lines %d,%d; want 9,12", res.Diags[0].Pos.Line, res.Diags[1].Pos.Line)
	}
	if len(res.Suppressed) != 2 {
		t.Fatalf("got suppressed %v, want 2", res.Suppressed)
	}
	for _, s := range res.Suppressed {
		if s.Analyzer != "varcheck" {
			t.Errorf("suppressed diagnostic names analyzer %q, want varcheck", s.Analyzer)
		}
	}
}

// factExporter exports one fact per package and reads the fact of a
// fixed upstream package, checking the cross-package store plumbing.
func TestFactsRoundTrip(t *testing.T) {
	facts := NewFacts()
	exporter := &Analyzer{
		Name: "facttest",
		Doc:  "test analyzer: exports a fact",
		Run: func(pass *Pass) (any, error) {
			pass.ExportFact("k", pass.PkgPath+"-fact")
			return nil, nil
		},
	}
	pkg := parsePkg(t, "package p\n")
	if _, err := RunAnalyzer(exporter, pkg, facts); err != nil {
		t.Fatal(err)
	}
	importer := &Analyzer{
		Name: "facttest",
		Doc:  "test analyzer: imports a fact",
		Run: func(pass *Pass) (any, error) {
			v, ok := pass.ImportFact("example.com/p", "k")
			if !ok {
				return nil, fmt.Errorf("fact not found")
			}
			if v.(string) != "example.com/p-fact" {
				return nil, fmt.Errorf("fact = %v", v)
			}
			if _, ok := pass.ImportFact("example.com/absent", "k"); ok {
				return nil, fmt.Errorf("found fact for absent package")
			}
			return nil, nil
		},
	}
	if _, err := RunAnalyzer(importer, pkg, facts); err != nil {
		t.Fatal(err)
	}
}

func TestIgnoreAllSuppressesEveryAnalyzer(t *testing.T) {
	pkg := parsePkg(t, `package p

//ziv:ignore(all) blanket waiver
var waived = 1
`)
	res, err := RunAnalyzer(varReporter, pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("got %v, want no diagnostics under //ziv:ignore(all)", res.Diags)
	}
}

func TestUnusedIgnoreDetection(t *testing.T) {
	pkg := parsePkg(t, `package p

//ziv:ignore(varcheck) used waiver
var waived = 1

//ziv:ignore(all) used blanket waiver
var waivedAll = 2

func f() {
	//ziv:ignore(varcheck) useless: vars inside functions are not flagged
	_ = 0
}

//ziv:ignore(nosuchanalyzer) names an analyzer outside the suite
var flagged = 3
`)
	res, err := RunAnalyzer(varReporter, pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	diags := unusedIgnores([]*Package{pkg}, []*Analyzer{varReporter}, res.Suppressed)
	if len(diags) != 2 {
		t.Fatalf("got %d unusedignore diagnostics %v, want 2", len(diags), diags)
	}
	if diags[0].Pos.Line != 10 || !strings.Contains(diags[0].Message, `"varcheck" suppresses nothing`) {
		t.Errorf("diag[0] = %v, want suppresses-nothing at line 10", diags[0])
	}
	if diags[1].Pos.Line != 14 || !strings.Contains(diags[1].Message, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("diag[1] = %v, want unknown-analyzer at line 14", diags[1])
	}
	for _, d := range diags {
		if d.Analyzer != UnusedIgnoreAnalyzer {
			t.Errorf("diagnostic attributed to %q, want %q", d.Analyzer, UnusedIgnoreAnalyzer)
		}
	}
}

func TestUnusedIgnoreAllMustSuppressSomething(t *testing.T) {
	pkg := parsePkg(t, `package p

//ziv:ignore(all) stale blanket waiver
func f() {}
`)
	res, err := RunAnalyzer(varReporter, pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	diags := unusedIgnores([]*Package{pkg}, []*Analyzer{varReporter}, res.Suppressed)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, `"all" suppresses nothing`) {
		t.Fatalf("got %v, want one stale-blanket-waiver diagnostic", diags)
	}
}

// TestLoadRealPackage drives the go list -export loader against a real
// module package and checks the type information is live.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load(".", "zivsim/internal/energy")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.PkgPath != "zivsim/internal/energy" {
		t.Errorf("PkgPath = %q", pkg.PkgPath)
	}
	if pkg.Types.Scope().Lookup("Meter") == nil {
		t.Error("type info missing exported Meter symbol")
	}
	if len(pkg.Files) == 0 || len(pkg.Info.Defs) == 0 {
		t.Error("parsed files or defs are empty")
	}
}

// TestLoadResolvesInModuleDeps checks that a package importing other
// module packages type-checks from export data.
func TestLoadResolvesInModuleDeps(t *testing.T) {
	pkgs, err := Load(".", "zivsim/internal/directory")
	if err != nil {
		t.Fatal(err)
	}
	obj := pkgs[0].Types.Scope().Lookup("Directory")
	if obj == nil {
		t.Fatal("Directory type not found")
	}
}
