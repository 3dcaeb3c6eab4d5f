package main

import (
	"bytes"
	"strings"
	"testing"
)

func report(figs ...FigResult) Report {
	return Report{Figures: figs}
}

func TestCompareReportsWithinTolerance(t *testing.T) {
	oldRep := report(
		FigResult{ID: "fig1", RefsPerSec: 1_000_000},
		FigResult{ID: "fig8", RefsPerSec: 2_000_000},
	)
	newRep := report(
		FigResult{ID: "fig1", RefsPerSec: 960_000},   // -4%: inside 5%
		FigResult{ID: "fig8", RefsPerSec: 2_400_000}, // +20%
	)
	var buf bytes.Buffer
	if n := compareReports(oldRep, newRep, 5, &buf); n != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", n, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "-4.0%") || !strings.Contains(out, "+20.0%") {
		t.Fatalf("deltas missing:\n%s", out)
	}
	if strings.Contains(out, "REGRESSION") {
		t.Fatalf("spurious regression:\n%s", out)
	}
}

func TestCompareReportsFlagsRegression(t *testing.T) {
	oldRep := report(FigResult{ID: "fig11", RefsPerSec: 1_000_000})
	newRep := report(FigResult{ID: "fig11", RefsPerSec: 900_000}) // -10%
	var buf bytes.Buffer
	if n := compareReports(oldRep, newRep, 5, &buf); n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("regression not marked:\n%s", buf.String())
	}
	// A wider tolerance accepts the same delta.
	if n := compareReports(oldRep, newRep, 15, &bytes.Buffer{}); n != 0 {
		t.Fatalf("regressions at 15%% tolerance = %d, want 0", n)
	}
}

func TestCompareReportsDisjointFigures(t *testing.T) {
	oldRep := report(FigResult{ID: "fig1", RefsPerSec: 1_000_000})
	newRep := report(FigResult{ID: "fig8", RefsPerSec: 500_000})
	var buf bytes.Buffer
	if n := compareReports(oldRep, newRep, 5, &buf); n != 0 {
		t.Fatalf("disjoint sets counted as regressions: %d\n%s", n, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "new") || !strings.Contains(out, "gone") {
		t.Fatalf("added/removed figures not noted:\n%s", out)
	}
}
