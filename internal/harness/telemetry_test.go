package harness

import (
	"encoding/json"
	"fmt"
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
// decision, even in a sweep with a failed job: the figure renders
// byte-identically with telemetry off and on.
func TestTelemetryInvariance(t *testing.T) {
	off := obsOptions()
	off.FaultSpec = "panic:" + faultedJob
	want, _ := figTable(t, "fig1", off)

	on := off
	sink, _, _ := fullSink(t, t.TempDir(), on)
	on.Telemetry = sink
	got, _ := figTable(t, "fig1", on)

	if got != want {
		t.Fatalf("telemetry changed simulator output:\n--- off ---\n%s\n--- on ---\n%s", want, got)
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
// exactly, the failed job must appear once with its error, the metrics
// must tally, and the sweep trace must be a valid span timeline.
func TestTelemetrySweepLedger(t *testing.T) {
	dir := t.TempDir()

	opt := obsOptions()
	opt.FaultSpec = "panic:" + faultedJob
	opt.CacheDir = filepath.Join(dir, "store")
	sink, reg, ledgerPath := fullSink(t, dir, opt)
	opt.Telemetry = sink
	_, st := runFig(t, "fig1", opt)

	if len(st.Failed) != 1 || len(st.Skipped) != 0 {
		t.Fatalf("faulted sweep: %+v, want one failed job and none skipped", st)
	}

	// Ledger ↔ store: the set of keys the ledger marked done must equal
	// the stored key set, and each done key must be unique.
	_, recs, err := telemetry.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	doneKeys := map[string]bool{}
	failed := 0
	for _, rec := range recs {
		switch rec.Outcome {
		case telemetry.OutcomeDone:
			if rec.Sim == faultedJob {
				t.Fatalf("ledger recorded the faulted job done: %+v", rec)
			}
			if doneKeys[rec.Key] {
				t.Fatalf("ledger recorded key %s done twice", rec.Key)
			}
			doneKeys[rec.Key] = true
			if rec.DurUS <= 0 || rec.Refs == 0 {
				t.Fatalf("done record missing duration/refs: %+v", rec)
			}
		case telemetry.OutcomeFailed:
			failed++
			if rec.Sim != faultedJob || rec.Err == "" {
				t.Fatalf("failed record is not the faulted job's or carries no error: %+v", rec)
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
	if failed != 1 {
		t.Fatalf("ledger recorded %d failed jobs, want 1 (one injected fault)", failed)
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
		`zivsim_sweep_jobs_total{outcome="failed"} 1`,
		"zivsim_sweep_jobs_inflight 0",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo.String())
		}
	}

	// Spans: the sweep trace is a valid timeline with one running span
	// per simulated job, the failed one included.
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
	if names["running"] != st.Completed+1 || names["queued"] != st.Completed+1 {
		t.Fatalf("trace spans = %v, want %d running and queued phases", sortedSpanNames(names), st.Completed+1)
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

// TestFailedJobRunsOnce: a failing job that several figures of one sweep
// share (Figs. 1, 3 and 4 all run the faulted job) is simulated once and
// counted once — by the sweep status, the jobs_total counter and the
// progress line.
func TestFailedJobRunsOnce(t *testing.T) {
	opt := obsOptions()
	opt.FaultSpec = "panic:" + faultedJob
	reg := telemetry.NewRegistry()
	var progress strings.Builder
	var starts atomic.Int64
	opt.Telemetry = telemetry.NewSink(telClock(), telemetry.Outputs{Registry: reg, Progress: &progress,
		Observer: func(rec telemetry.Record) {
			if rec.Type == telemetry.SimAttemptStart && rec.Sim == faultedJob {
				starts.Add(1)
			}
		}})
	_, st := runFigs(t, opt, "fig1", "fig3", "fig4")
	opt.Telemetry.Finish()

	if n := starts.Load(); n != 1 {
		t.Errorf("the faulted job started %d times, want 1", n)
	}
	if len(st.Failed) != 1 {
		t.Errorf("Failed = %d jobs, want 1: %v", len(st.Failed), st.Failed)
	}
	var expo strings.Builder
	if err := telemetry.WriteExposition(&expo, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`zivsim_sweep_jobs_total{outcome="failed"} 1`,
		"zivsim_sweep_attempts_total " + strconv.Itoa(st.Completed+1),
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(progress.String()), "\r")
	last := lines[len(lines)-1]
	if want := fmt.Sprintf("%d/%d runs", st.Completed, st.Completed+1); !strings.HasPrefix(last, want) ||
		!strings.Contains(last, "| 1 failed |") {
		t.Errorf("final progress line %q, want %q ... \"| 1 failed |\"", last, want)
	}
}
