package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"zivsim/internal/telemetry"
)

// TestLedgerReportEscapesFaultCell writes a ledger whose failed jobs'
// errors hold a job key ("cfg|mix") and a newline, and checks that each
// fault stays one markdown row of two cells: message and count.
func TestLedgerReportEscapesFaultCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ledger")
	l, err := telemetry.CreateLedger(path, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range []string{
		"faultspec: injected panic for NI-LRU-256KB|hetero.00",
		"core: no relocation set\nanywhere",
	} {
		l.WriteRecord(telemetry.Record{Type: telemetry.SimAttemptEnd, Key: fmt.Sprintf("%064x", i),
			Outcome: telemetry.OutcomeFailed, Err: msg})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := ledgerReport(path, &out); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		`| faultspec: injected panic for NI-LRU-256KB\|hetero.00 | 1 |`,
		"| core: no relocation set anywhere | 1 |",
	} {
		if !strings.Contains(out.String(), "\n"+row+"\n") {
			t.Errorf("report lacks the row %q:\n%s", row, out.String())
		}
	}
}
