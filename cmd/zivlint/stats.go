package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"zivsim/internal/analysis/framework"
)

// statsVersion guards the zivlint.stats.json file format.
const statsVersion = 1

// analyzerStats is one analyzer's row in the stats report.
type analyzerStats struct {
	// Findings is the count of reported (unwaived) findings.
	Findings int `json:"findings"`
	// Suppressions is the count of //ziv:ignore-waived findings.
	Suppressions int `json:"suppressions"`
}

// lintStats is the -stats report: per-analyzer finding and suppression
// counts over one suite run. The committed copy doubles as the
// suppression budget for -stats-gate: a change that adds waivers must
// regenerate the file, making the new debt visible in the diff.
type lintStats struct {
	Version   int                      `json:"version"`
	Analyzers map[string]analyzerStats `json:"analyzers"`
}

// buildStats tallies a suite result into per-analyzer counts. Every
// suite analyzer appears even at zero so the report shape is stable
// across runs and diffs stay meaningful.
func buildStats(res framework.SuiteResult) lintStats {
	s := lintStats{Version: statsVersion, Analyzers: map[string]analyzerStats{}}
	for _, a := range analyzers {
		s.Analyzers[a.Name] = analyzerStats{}
	}
	s.Analyzers[framework.UnusedIgnoreAnalyzer] = analyzerStats{}
	for _, d := range res.Diags {
		st := s.Analyzers[d.Analyzer]
		st.Findings++
		s.Analyzers[d.Analyzer] = st
	}
	for _, d := range res.Suppressed {
		st := s.Analyzers[d.Analyzer]
		st.Suppressions++
		s.Analyzers[d.Analyzer] = st
	}
	return s
}

// writeStats saves the report with a trailing newline, suitable for
// committing. Map keys marshal sorted, so the output is deterministic.
func writeStats(path string, s lintStats) error {
	data, err := json.MarshalIndent(s, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadStats reads a committed stats file for gating.
func loadStats(path string) (lintStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return lintStats{}, err
	}
	var s lintStats
	if err := json.Unmarshal(data, &s); err != nil {
		return lintStats{}, fmt.Errorf("stats %s: %v", path, err)
	}
	if s.Version != statsVersion {
		return lintStats{}, fmt.Errorf("stats %s: version %d, want %d (regenerate with -stats)", path, s.Version, statsVersion)
	}
	return s, nil
}

// gateStats compares current suppression counts against the committed
// budget and returns a sorted description of every analyzer whose count
// rose. Analyzers absent from the committed file have budget zero, so
// waivers for a brand-new analyzer are gated too.
func gateStats(committed, current lintStats) []string {
	var rose []string
	for name, cur := range current.Analyzers {
		if was := committed.Analyzers[name].Suppressions; cur.Suppressions > was {
			rose = append(rose, fmt.Sprintf("%s: %d -> %d", name, was, cur.Suppressions))
		}
	}
	sort.Strings(rose)
	return rose
}
