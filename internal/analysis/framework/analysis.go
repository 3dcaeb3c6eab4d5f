// Package framework is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that zivlint's analyzers are
// written against. The build environment for this repository is offline
// (no module proxy), so the subset we need — Analyzer, Pass, diagnostics,
// cross-package facts, a suite runner and an analysistest-style
// fixture runner — is implemented here on top of the standard library
// (go/ast, go/types, and `go list -export` for dependency type
// information).
//
// The API is deliberately shape-compatible with x/tools: an analyzer is a
// value with Name, Doc and Run(*Pass), and Pass exposes Fset, Files, Pkg
// and TypesInfo. Passes additionally carry a Facts store: analyzers
// export per-package facts (e.g. detflow's function taint summaries,
// sidecarsync's mirror obligations) that downstream packages import, so
// interprocedural analyses compose bottom-up across the package graph.
// Migrating to the real framework later is a mechanical import swap.
//
// The package also holds what the analyzers would otherwise each copy:
// AST and type helpers (callee resolution, selector chains, a named-type
// predicate), the one local-or-imported fact lookup (Fact) and the
// bounded caller-obligation fixpoint (SolveObligations).
//
// Suppression: a diagnostic from analyzer NAME is suppressed when the
// offending line (or the line directly above it) carries a comment of
// the form
//
//	//ziv:ignore(NAME) reason...
//	//ziv:ignore(NAME1,NAME2) reason...
//
// with the analyzer name "all" suppressing every analyzer. The reason is
// mandatory by convention but not enforced. Suppressed diagnostics are
// not discarded: they are returned out-of-band so the fixture runner can
// assert //ziv:ignore interplay and the CLI can report waiver counts.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer (the subset zivlint needs).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //ziv:ignore
	// directives. It must be a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation, printed by `zivlint -help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position // file, line and column of the finding
	Message  string         // human-readable description
	Analyzer string         // name of the reporting analyzer
}

// String formats the diagnostic the way `go vet` does, with the analyzer
// name appended.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Result is the outcome of applying one analyzer to one package.
type Result struct {
	// Diags are the reported findings, sorted by position.
	Diags []Diagnostic
	// Suppressed are findings waived by //ziv:ignore directives, sorted
	// by position. They never fail a build; the fixture runner uses them
	// to assert directive coverage.
	Suppressed []Diagnostic
}

// Facts is a cross-package store for analyzer summaries. One store is
// shared by every (analyzer, package) pass of a suite run; packages are
// analyzed in dependency order, so a pass can rely on the facts of every
// package it imports being present.
type Facts struct {
	m map[factKey]any
}

type factKey struct {
	pkgPath  string
	analyzer string
	key      string
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: map[factKey]any{}} }

func (f *Facts) export(pkgPath, analyzer, key string, v any) {
	f.m[factKey{pkgPath, analyzer, key}] = v
}

func (f *Facts) imp(pkgPath, analyzer, key string) (any, bool) {
	v, ok := f.m[factKey{pkgPath, analyzer, key}]
	return v, ok
}

// Pass carries one (analyzer, package) unit of work. It mirrors
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer      // the analysis being applied
	Fset      *token.FileSet // position information for Files
	Files     []*ast.File    // non-test files only, with comments
	Pkg       *types.Package // the type-checked package
	PkgPath   string         // the package's import path
	TypesInfo *types.Info    // type and object resolution for Files
	// Facts is the suite-wide fact store (never nil).
	Facts *Facts

	ignores    map[ignoreKey]bool
	diags      *[]Diagnostic
	suppressed *[]Diagnostic
}

// ExportFact publishes a fact of this pass's analyzer for this package,
// retrievable by downstream passes via ImportFact.
func (p *Pass) ExportFact(key string, v any) {
	p.Facts.export(p.PkgPath, p.Analyzer.Name, key, v)
}

// ImportFact retrieves a fact this analyzer exported while analyzing
// pkgPath (which must precede the current package in dependency order).
func (p *Pass) ImportFact(pkgPath, key string) (any, bool) {
	return p.Facts.imp(pkgPath, p.Analyzer.Name, key)
}

type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

var ignoreRe = regexp.MustCompile(`^//\s*ziv:ignore\(([A-Za-z0-9_,\s]+)\)`)

// ignoredNames extracts the analyzer list from an ignore directive
// comment, or nil if the comment is not a directive.
func ignoredNames(text string) []string {
	m := ignoreRe.FindStringSubmatch(text)
	if m == nil {
		return nil
	}
	var names []string
	for _, name := range strings.Split(m[1], ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// buildIgnores scans every file's comments for ignore directives. A
// directive applies to its own line (end-of-line comment) and to the
// following line (standalone comment above the offending statement).
func buildIgnores(fset *token.FileSet, files []*ast.File) map[ignoreKey]bool {
	ig := make(map[ignoreKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := ignoredNames(c.Text)
				if names == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				for _, name := range names {
					ig[ignoreKey{pos.Filename, pos.Line, name}] = true
					ig[ignoreKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return ig
}

// Reportf records a diagnostic at pos. If an ignore directive covers the
// line, the diagnostic is recorded as suppressed instead.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	d := Diagnostic{
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	}
	if p.ignores[ignoreKey{position.Filename, position.Line, p.Analyzer.Name}] ||
		p.ignores[ignoreKey{position.Filename, position.Line, "all"}] {
		*p.suppressed = append(*p.suppressed, d)
		return
	}
	*p.diags = append(*p.diags, d)
}

// RunAnalyzer applies a to one loaded package and returns its result with
// diagnostics sorted by position. facts may be nil for isolated runs (a
// fresh store is created). It is the single entry point shared by the
// suite driver and the analysistest fixture runner, so both observe
// identical directive-suppression behavior.
func RunAnalyzer(a *Analyzer, pkg *Package, facts *Facts) (Result, error) {
	if facts == nil {
		facts = NewFacts()
	}
	var res Result
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		PkgPath:    pkg.PkgPath,
		TypesInfo:  pkg.Info,
		Facts:      facts,
		ignores:    buildIgnores(pkg.Fset, pkg.Files),
		diags:      &res.Diags,
		suppressed: &res.Suppressed,
	}
	if _, err := a.Run(pass); err != nil {
		return Result{}, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	sortDiagnostics(res.Diags)
	sortDiagnostics(res.Suppressed)
	return res, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
