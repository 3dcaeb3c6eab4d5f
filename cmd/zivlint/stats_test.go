package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zivsim/internal/analysis/framework"
)

func statsDiag(analyzer string) framework.Diagnostic {
	return framework.Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 1},
		Analyzer: analyzer,
		Message:  "m",
	}
}

func TestBuildStatsCountsAllAnalyzers(t *testing.T) {
	res := framework.SuiteResult{
		Diags:      []framework.Diagnostic{statsDiag("detflow"), statsDiag("detflow")},
		Suppressed: []framework.Diagnostic{statsDiag("allocpure")},
	}
	s := buildStats(res)
	if got := len(s.Analyzers); got != len(analyzers)+1 {
		t.Fatalf("stats cover %d analyzers, want %d (suite plus unusedignore)", got, len(analyzers)+1)
	}
	if s.Analyzers["detflow"].Findings != 2 || s.Analyzers["detflow"].Suppressions != 0 {
		t.Errorf("detflow = %+v, want 2 findings", s.Analyzers["detflow"])
	}
	if s.Analyzers["allocpure"].Suppressions != 1 {
		t.Errorf("allocpure = %+v, want 1 suppression", s.Analyzers["allocpure"])
	}
	if _, ok := s.Analyzers["sidecarsync"]; !ok {
		t.Error("quiet analyzer missing from stats: report shape must be stable")
	}
}

func TestGateStatsFlagsRisingSuppressions(t *testing.T) {
	committed := lintStats{Version: statsVersion, Analyzers: map[string]analyzerStats{
		"detflow": {Suppressions: 2},
	}}
	current := lintStats{Version: statsVersion, Analyzers: map[string]analyzerStats{
		"detflow":    {Suppressions: 3}, // rose: must gate
		"allocpure":  {Suppressions: 1}, // absent from budget: must gate
		"statreset":  {Findings: 9},     // findings do not gate
		"doccomment": {Suppressions: 0}, // flat: fine
	}}
	rose := gateStats(committed, current)
	if len(rose) != 2 {
		t.Fatalf("rose = %v, want detflow and allocpure", rose)
	}
	if rose[0] != "allocpure: 0 -> 1" || rose[1] != "detflow: 2 -> 3" {
		t.Errorf("rose = %v, want sorted budget violations", rose)
	}

	// Counts at or below budget pass.
	if rose := gateStats(committed, lintStats{Analyzers: map[string]analyzerStats{
		"detflow": {Suppressions: 2},
	}}); len(rose) != 0 {
		t.Errorf("flat counts gated: %v", rose)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	s := buildStats(framework.SuiteResult{})
	if err := writeStats(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := loadStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Analyzers) != len(s.Analyzers) {
		t.Fatalf("round trip lost analyzers: %d != %d", len(got.Analyzers), len(s.Analyzers))
	}
	// Version drift is an explicit error, not silent misgating.
	if err := os.WriteFile(path, []byte(`{"version":99,"analyzers":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadStats(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
}

// TestStatsEmissionAndGate drives the CLI end to end on one package:
// -stats must emit a well-formed report and gating that report against
// itself must pass, while a tightened budget must fail the run.
func TestStatsEmissionAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("package analysis in -short mode")
	}
	dir := t.TempDir()
	statsPath := filepath.Join(dir, "stats.json")
	code, _, stderr := capture(t, "-stats="+statsPath, "zivsim/internal/energy")
	if code != 0 {
		t.Fatalf("emission run: exit %d\nstderr:\n%s", code, stderr)
	}
	var s lintStats
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("emitted stats not valid JSON: %v", err)
	}
	if s.Version != statsVersion || len(s.Analyzers) != len(analyzers)+1 {
		t.Fatalf("emitted stats = version %d with %d analyzers, want %d with %d",
			s.Version, len(s.Analyzers), statsVersion, len(analyzers)+1)
	}

	code, _, stderr = capture(t, "-stats-gate="+statsPath, "zivsim/internal/energy")
	if code != 0 {
		t.Fatalf("self-gate: exit %d\nstderr:\n%s", code, stderr)
	}

	// cmd/zivtrace carries a real detflow waiver: gating it against a
	// zero budget must fail the run and name the rise.
	zero := filepath.Join(dir, "zero.json")
	if err := os.WriteFile(zero, []byte(`{"version":1,"analyzers":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = capture(t, "-stats-gate="+zero, "zivsim/cmd/zivtrace")
	if code != 1 {
		t.Fatalf("zero-budget gate: exit %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "suppression count rose: detflow: 0 -> 1") {
		t.Fatalf("stderr = %q, want the detflow rise named", stderr)
	}

	// A missing budget file is a configuration error, not a pass.
	code, _, stderr = capture(t, "-stats-gate="+filepath.Join(dir, "absent.json"), "zivsim/internal/energy")
	if code != 2 {
		t.Fatalf("missing budget file: exit %d, want 2\nstderr:\n%s", code, stderr)
	}
}
