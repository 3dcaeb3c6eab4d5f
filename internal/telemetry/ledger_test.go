package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLedgerRoundTrip writes records through the public API and reads
// them back.
func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ndjson")
	l, err := CreateLedger(path, "abc123")
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: SimAttemptEnd, Sim: "NI-LRU|hetero/0", Key: "k0", Cfg: "NI-LRU", Mix: "hetero/0", Outcome: OutcomeFailed, DurUS: 1500, Err: "boom"},
		{Type: SimAttemptEnd, Sim: "I-LRU|hetero/0", Key: "k1", Cfg: "I-LRU", Mix: "hetero/0", Outcome: OutcomeDone, DurUS: 2500, Refs: 10000, RefsPerSec: 4e6},
		{Type: SimAdopted, Sim: "ZIV|hetero/1", Key: "k2", Cfg: "ZIV", Mix: "hetero/1", Outcome: OutcomeCacheHit},
	}
	for _, rec := range recs {
		l.WriteRecord(rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	hdr, got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != LedgerVersion || hdr.Options != "abc123" {
		t.Fatalf("header = %+v", hdr)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestLedgerTornTail pins crash tolerance: a torn final line (and stray
// mid-file corruption) is dropped while every intact record loads.
func TestLedgerTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ndjson")
	l, err := CreateLedger(path, "")
	if err != nil {
		t.Fatal(err)
	}
	l.WriteRecord(Record{Key: "k1", Outcome: OutcomeDone})
	l.WriteRecord(Record{Key: "k2", Outcome: OutcomeDone})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt a middle line and tear the tail mid-append.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{{{ not json\n"
	mut := strings.Join(lines, "") + `{"key":"k3","outcome":"do`
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}

	_, got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "k2" {
		t.Fatalf("records after corruption = %+v, want just k2", got)
	}
}

// TestLedgerHeaderRequired pins that a non-ledger file is an error, not
// an empty result.
func TestLedgerHeaderRequired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-ledger")
	if err := os.WriteFile(path, []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLedger(path); err == nil {
		t.Fatal("ReadLedger accepted a file with no header")
	}
	if err := os.WriteFile(path, []byte(`{"version":"other-v9"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLedger(path); err == nil {
		t.Fatal("ReadLedger accepted a mismatched version")
	}
	// A v1 ledger may hold checkpoint-hit rows that v2 no longer
	// counts: it must be rejected, not silently under-reported.
	v1 := `{"version":"zivsim-ledger-v1"}` + "\n" + `{"key":"k1","outcome":"checkpoint-hit"}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLedger(path); err == nil {
		t.Fatal("ReadLedger accepted a v1 ledger")
	}
	// A v2 ledger times attempts in wall_us, which v3 calls dur_us: it
	// must be rejected, not read with every duration zero.
	v2 := `{"version":"zivsim-ledger-v2"}` + "\n" + `{"key":"k1","outcome":"done","wall_us":1500}` + "\n"
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLedger(path); err == nil {
		t.Fatal("ReadLedger accepted a v2 ledger")
	}
	// A v3 ledger may hold retry lines beside the job's final record: it
	// must be rejected, not read with the retried job counted twice.
	v3 := `{"version":"zivsim-ledger-v3"}` + "\n" +
		`{"key":"k1","attempt":1,"outcome":"retry","err":"boom"}` + "\n" +
		`{"key":"k1","attempt":2,"outcome":"done","dur_us":1500}` + "\n"
	if err := os.WriteFile(path, []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLedger(path); err == nil {
		t.Fatal("ReadLedger accepted a v3 ledger")
	}
}
