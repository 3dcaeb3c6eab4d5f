package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zivsim/internal/telemetry"
)

// telClock is an injected wall clock advancing 1ms per reading, so
// every telemetry timestamp and duration is deterministic and nonzero.
// Atomic: the sink reads it from worker goroutines.
func telClock() func() time.Time {
	var ticks atomic.Int64
	return func() time.Time {
		n := ticks.Add(1)
		return time.Unix(1_700_000, 0).Add(time.Duration(n) * time.Millisecond)
	}
}

// fullSink builds a sink with every file and metrics output attached,
// returning the registry and ledger path for inspection.
func fullSink(t *testing.T, dir string, opt Options) (*telemetry.Sink, *telemetry.Registry, string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	path := filepath.Join(dir, "run.ndjson")
	led, err := telemetry.CreateLedger(path, opt.IdentityHash())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	return telemetry.NewSink(telClock(), telemetry.Outputs{Registry: reg, Ledger: led, Timeline: true}), reg, path
}

// TestTelemetryInvariance proves attaching the full telemetry layer —
// registry, timeline, ledger — does not change a single simulated
// decision, even while the sweep retries an injected fault: the figure
// renders byte-identically with telemetry off and on.
func TestTelemetryInvariance(t *testing.T) {
	off, _ := figTable(t, "fig1", obsOptions())

	on := obsOptions()
	on.MaxAttempts = 2
	on.FaultSpec = "panic:" + faultedJob + "@1"
	sink, _, _ := fullSink(t, t.TempDir(), on)
	on.Telemetry = sink
	got, _ := figTable(t, "fig1", on)

	if got != off {
		t.Fatalf("telemetry changed simulator output:\n--- off ---\n%s\n--- on ---\n%s", off, got)
	}
}

// storeKeys lists the keys of the entries in a result-store directory.
func storeKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, e := range ents {
		if k, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			keys[k] = true
		}
	}
	return keys
}

// TestTelemetrySweepLedger runs a faulted sweep with full telemetry and
// a result store, and cross-checks every surface against the harness's
// own records: the ledger's done keys must equal the store's key set
// exactly, the retry must be visible, the metrics must tally, and the
// sweep trace must be a valid span timeline.
func TestTelemetrySweepLedger(t *testing.T) {
	dir := t.TempDir()

	opt := obsOptions()
	opt.MaxAttempts = 2
	opt.FaultSpec = "panic:" + faultedJob + "@1"
	opt.CacheDir = filepath.Join(dir, "store")
	sink, reg, ledgerPath := fullSink(t, dir, opt)
	opt.Telemetry = sink
	_, st := runFig(t, "fig1", opt)

	if len(st.Failed) != 0 || len(st.Skipped) != 0 {
		t.Fatalf("faulted sweep did not recover: %+v", st)
	}

	// Ledger ↔ store: the set of keys the ledger marked done must equal
	// the stored key set, and each done key must be unique.
	_, recs, err := telemetry.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	doneKeys := map[string]bool{}
	retries := 0
	for _, rec := range recs {
		switch rec.Outcome {
		case telemetry.OutcomeDone:
			if doneKeys[rec.Key] {
				t.Fatalf("ledger recorded key %s done twice", rec.Key)
			}
			doneKeys[rec.Key] = true
			if rec.DurUS <= 0 || rec.Refs == 0 {
				t.Fatalf("done record missing duration/refs: %+v", rec)
			}
		case telemetry.OutcomeRetry:
			retries++
			if rec.Err == "" {
				t.Fatalf("retry record carries no error: %+v", rec)
			}
		}
	}
	stored := storeKeys(t, opt.CacheDir)
	if len(stored) == 0 {
		t.Fatal("the store holds nothing")
	}
	if len(doneKeys) != len(stored) {
		t.Fatalf("ledger done keys = %d, store keys = %d", len(doneKeys), len(stored))
	}
	for k := range stored {
		if !doneKeys[k] {
			t.Fatalf("stored key %s missing from ledger", k)
		}
	}
	if retries != 1 {
		t.Fatalf("ledger recorded %d retries, want 1 (one injected fault)", retries)
	}
	if st.Completed != len(doneKeys) {
		t.Fatalf("harness completed %d jobs, ledger recorded %d", st.Completed, len(doneKeys))
	}

	// Metrics: the exposition parses, and the counters match the sweep.
	var expo strings.Builder
	if err := telemetry.WriteExposition(&expo, reg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := telemetry.CheckExposition(strings.NewReader(expo.String())); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, expo.String())
	}
	for _, want := range []string{
		`zivsim_sweep_jobs_total{outcome="done"} ` + strconv.Itoa(st.Completed),
		"zivsim_sweep_retries_total 1",
		"zivsim_sweep_jobs_inflight 0",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo.String())
		}
	}

	// Spans: the sweep trace is a valid timeline with one retry span.
	var trace strings.Builder
	if err := sink.WriteSweepTrace(&trace, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace.String()), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name]++
		}
	}
	if names["retry 2"] != 1 {
		t.Fatalf("trace spans = %v, want exactly one 'retry 2'", sortedSpanNames(names))
	}
	if names["running"] == 0 || names["queued"] == 0 {
		t.Fatalf("trace spans = %v, want running and queued phases", sortedSpanNames(names))
	}
}

// TestTelemetrySweepDrain pins that a drained sweep records its
// undispatched jobs as skipped in the ledger.
func TestTelemetrySweepDrain(t *testing.T) {
	dir := t.TempDir()

	opt := obsOptions()
	opt.FaultSpec = "drain-after:2"
	opt.Drain = NewDrain()
	sink, _, ledgerPath := fullSink(t, dir, opt)
	opt.Telemetry = sink
	_, st := runFig(t, "fig1", opt)

	if len(st.Skipped) == 0 {
		t.Fatal("drain-after:2 skipped nothing")
	}
	_, recs, err := telemetry.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, rec := range recs {
		if rec.Outcome == telemetry.OutcomeSkipped {
			skipped++
		}
	}
	if skipped != len(st.Skipped) {
		t.Fatalf("ledger recorded %d skips, harness %d", skipped, len(st.Skipped))
	}
}

// sortedSpanNames renders a span-name histogram deterministically for
// failure messages.
func sortedSpanNames(names map[string]int) []string {
	var out []string
	for n, c := range names {
		out = append(out, n+"×"+strconv.Itoa(c))
	}
	sort.Strings(out)
	return out
}
