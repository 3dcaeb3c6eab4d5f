// The run ledger. A ledger file is an append-only NDJSON journal of a
// sweep's job-level history — one lifecycle Record per job, written at
// its attempt end, adoption or skip: a header line naming the format
// version and the options identity, then one JSON line per record, each
// appended with a single write so a crash can tear at most the final
// line, which ReadLedger drops. Results themselves live in the harness
// result store; the ledger stores provenance for reporting: `zivreport
// -ledger` turns it into wall-time percentiles, cache-hit rates and
// fault breakdowns.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// LedgerVersion stamps the ledger header; bump it when the record
// schema changes incompatibly. v4 records hold one line per job (v3 could
// add retry lines and an attempt number); v3 lines are lifecycle
// Records, whose attempt duration is dur_us (v2 called it wall_us); v2
// dropped the checkpoint-hit outcome. A ledger of any other version is
// rejected rather than miscounted.
const LedgerVersion = "zivsim-ledger-v4"

// LedgerHeader is the first line of a ledger file.
type LedgerHeader struct {
	// Version is the ledger format version (LedgerVersion).
	Version string `json:"version"`
	// Options fingerprints the sweep's result-affecting option set
	// (harness Options.IdentityHash; empty if the producer did not
	// supply one).
	Options string `json:"options,omitempty"`
}

// Ledger is an open, append-only run ledger. Writes are best-effort:
// a failed append disables further journaling (and is reported once on
// stderr) but never fails the sweep.
type Ledger struct {
	mu sync.Mutex
	//ziv:guards(mu)
	f *os.File
	//ziv:guards(mu)
	broken bool
}

// CreateLedger truncates (or creates) the ledger at path and writes its
// header. optionsHash may be empty.
func CreateLedger(path, optionsHash string) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr, err := json.Marshal(LedgerHeader{Version: LedgerVersion, Options: optionsHash})
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return &Ledger{f: f}, nil
}

// WriteRecord appends one record as a single one-line write.
func (l *Ledger) WriteRecord(rec Record) {
	if l == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken || l.f == nil {
		return
	}
	if _, err := l.f.Write(append(data, '\n')); err != nil {
		l.broken = true
		fmt.Fprintf(os.Stderr, "telemetry: ledger write failed, journaling disabled: %v\n", err)
	}
}

// Close releases the ledger's file handle.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReadLedger loads a ledger file. It is torn-tail tolerant: unparsable
// record lines (a crash mid-append, or stray corruption) are dropped
// individually and every earlier record remains usable. A missing or
// unparsable header is an error — the file is not a ledger — and so is
// a header of another LedgerVersion.
func ReadLedger(path string) (LedgerHeader, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return LedgerHeader{}, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	if !sc.Scan() {
		return LedgerHeader{}, nil, fmt.Errorf("%s: empty file, not a ledger", path)
	}
	var hdr LedgerHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Version == "" {
		return LedgerHeader{}, nil, fmt.Errorf("%s: missing ledger header", path)
	}
	if hdr.Version != LedgerVersion {
		return LedgerHeader{}, nil, fmt.Errorf("%s: ledger version %q, want %q", path, hdr.Version, LedgerVersion)
	}
	var recs []Record
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Key == "" {
			continue
		}
		recs = append(recs, rec)
	}
	return hdr, recs, sc.Err()
}
