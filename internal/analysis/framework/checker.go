package framework

import "fmt"

// SuiteResult aggregates one full run of a set of analyzers over a set
// of packages.
type SuiteResult struct {
	// Diags holds every reported finding, sorted by position.
	Diags []Diagnostic
	// Suppressed holds every //ziv:ignore-waived finding, sorted by
	// position.
	Suppressed []Diagnostic
}

// RunSuite loads the packages matching patterns (relative to dir) and
// applies every analyzer to every package. Packages are visited in
// dependency order sharing one Facts store, so interprocedural analyzers
// (detflow, sidecarsync, allocpure) see the summaries of every imported
// package before analyzing its importers.
func RunSuite(dir string, patterns []string, analyzers []*Analyzer) (SuiteResult, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return SuiteResult{}, err
	}
	facts := NewFacts()
	var out SuiteResult
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			res, err := RunAnalyzer(a, pkg, facts)
			if err != nil {
				return SuiteResult{}, err
			}
			out.Diags = append(out.Diags, res.Diags...)
			out.Suppressed = append(out.Suppressed, res.Suppressed...)
		}
	}
	out.Diags = append(out.Diags, unusedIgnores(pkgs, analyzers, out.Suppressed)...)
	sortDiagnostics(out.Diags)
	sortDiagnostics(out.Suppressed)
	return out, nil
}

// UnusedIgnoreAnalyzer is the pseudo-analyzer name under which RunSuite
// reports ignore directives that waive nothing. A waiver outliving the
// finding it silenced is a trap: the next genuine finding on that line
// vanishes without anyone deciding it should.
const UnusedIgnoreAnalyzer = "unusedignore"

// unusedIgnores cross-references every ignore directive in the analyzed
// packages against the findings actually suppressed: a directive whose
// analyzer never fired on its lines — or that names an analyzer not in
// the suite at all — is reported as a finding of its own.
func unusedIgnores(pkgs []*Package, analyzers []*Analyzer, suppressed []Diagnostic) []Diagnostic {
	known := map[string]bool{"all": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	type lineKey struct {
		file string
		line int
	}
	supAt := map[lineKey]map[string]bool{}
	for _, d := range suppressed {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		if supAt[k] == nil {
			supAt[k] = map[string]bool{}
		}
		supAt[k][d.Analyzer] = true
	}
	covered := func(file string, line int, name string) bool {
		for _, l := range []int{line, line + 1} {
			m := supAt[lineKey{file, l}]
			if name == "all" && len(m) > 0 {
				return true
			}
			if m[name] {
				return true
			}
		}
		return false
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, name := range ignoredNames(c.Text) {
						pos := pkg.Fset.Position(c.Slash)
						switch {
						case !known[name]:
							out = append(out, Diagnostic{Pos: pos, Analyzer: UnusedIgnoreAnalyzer,
								Message: fmt.Sprintf("ignore directive names unknown analyzer %q", name)})
						case !covered(pos.Filename, pos.Line, name):
							out = append(out, Diagnostic{Pos: pos, Analyzer: UnusedIgnoreAnalyzer,
								Message: fmt.Sprintf("ignore directive for %q suppresses nothing", name)})
						}
					}
				}
			}
		}
	}
	return out
}

// FirstLine returns the first line of s (analyzer doc summaries).
func FirstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
