package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock returns an injected clock that advances stepMS milliseconds
// on every reading, starting from a fixed epoch. Atomic so concurrent
// sink paths stay race-free under -race.
func fakeClock(stepMS int64) func() time.Time {
	var ticks atomic.Int64
	return func() time.Time {
		n := ticks.Add(1)
		return time.Unix(1_000_000, 0).Add(time.Duration(n*stepMS) * time.Millisecond)
	}
}

// lifecycle is a failed job's and a done job's queued → running →
// outcome history plus an adopted and a skipped job, as the runner
// reports them.
func lifecycle() []Record {
	return []Record{
		{Type: SimQueued, Sim: "cfg|mix0", Key: "key0", Cfg: "cfg", Mix: "mix0"},
		{Type: SimAttemptStart, Sim: "cfg|mix0", Key: "key0", Cfg: "cfg", Mix: "mix0"},
		{Type: SimAttemptEnd, Sim: "cfg|mix0", Key: "key0", Cfg: "cfg", Mix: "mix0", Outcome: OutcomeFailed, Err: "boom"},
		{Type: SimQueued, Sim: "cfg|mix", Key: "key1", Cfg: "cfg", Mix: "mix"},
		{Type: SimAttemptStart, Sim: "cfg|mix", Key: "key1", Cfg: "cfg", Mix: "mix"},
		{Type: SimAttemptEnd, Sim: "cfg|mix", Key: "key1", Cfg: "cfg", Mix: "mix", Outcome: OutcomeDone, Refs: 5000},
		{Type: SimQueued, Sim: "cfg|mix2", Key: "key2", Cfg: "cfg", Mix: "mix2"},
		{Type: SimAdopted, Sim: "cfg|mix2", Key: "key2", Cfg: "cfg", Mix: "mix2", Outcome: OutcomeCacheHit},
		{Type: SimQueued, Sim: "cfg|mix3", Key: "key3", Cfg: "cfg", Mix: "mix3"},
		{Type: SimSkipped, Sim: "cfg|mix3", Key: "key3", Cfg: "cfg", Mix: "mix3", Outcome: OutcomeSkipped},
	}
}

// TestSinkObserverMirrorsLifecycle reports every lifecycle step and
// checks the observer sees the same steps, in order, with the fields
// zivsimd's event feed depends on — and the attempt timing the sink
// fills in.
func TestSinkObserverMirrorsLifecycle(t *testing.T) {
	var got []Record
	s := NewSink(fakeClock(1), Outputs{Registry: NewRegistry(), Observer: func(rec Record) { got = append(got, rec) }})
	for _, rec := range lifecycle() {
		s.Report(rec)
	}

	wantTypes := []string{
		SimQueued, SimAttemptStart, SimAttemptEnd,
		SimQueued, SimAttemptStart, SimAttemptEnd,
		SimQueued, SimAdopted, SimQueued, SimSkipped,
	}
	if len(got) != len(wantTypes) {
		t.Fatalf("observed %d records, want %d", len(got), len(wantTypes))
	}
	for i, rec := range got {
		if rec.Type != wantTypes[i] {
			t.Fatalf("record %d type = %s, want %s", i, rec.Type, wantTypes[i])
		}
	}
	failed := got[2]
	if failed.Sim != "cfg|mix0" || failed.Key != "key0" || failed.Outcome != OutcomeFailed ||
		failed.Err != "boom" || failed.Refs != 0 {
		t.Fatalf("failed record fields: %+v", failed)
	}
	done := got[5]
	if done.Key != "key1" || done.Outcome != OutcomeDone || done.Refs != 5000 || done.Err != "" {
		t.Fatalf("done record fields: %+v", done)
	}
	if done.DurUS <= 0 || done.RefsPerSec <= 0 {
		t.Fatalf("done record missing the sink's duration/rate: %+v", done)
	}
	adopted := got[7]
	if adopted.Sim != "cfg|mix2" || adopted.Outcome != OutcomeCacheHit || adopted.Mix != "mix2" || adopted.DurUS != 0 {
		t.Fatalf("adopted record fields: %+v", adopted)
	}
	skipped := got[9]
	if skipped.Outcome != OutcomeSkipped || skipped.Key != "key3" {
		t.Fatalf("skipped record fields: %+v", skipped)
	}
}

// TestSinkObserverNilReceivers pins the nil-safety contract: a nil sink
// accepts every record, Finish and WriteSweepTrace without panicking.
func TestSinkObserverNilReceivers(t *testing.T) {
	var s *Sink
	for _, rec := range lifecycle() {
		s.Report(rec)
	}
	s.Finish()
	var buf strings.Builder
	if err := s.WriteSweepTrace(&buf, "nil"); err != nil {
		t.Fatalf("nil sink trace: %v", err)
	}
}

// TestSinkLifecycle reports a failed and a done job plus an adoption
// and a skip, then checks every surface: metrics, ledger, and
// that the ledger's lines are the observer's outcome records, field for
// field.
func TestSinkLifecycle(t *testing.T) {
	reg := NewRegistry()
	path := t.TempDir() + "/run.ndjson"
	led, err := CreateLedger(path, "opt")
	if err != nil {
		t.Fatal(err)
	}
	var observed []Record
	s := NewSink(fakeClock(1), Outputs{Registry: reg, Ledger: led, Timeline: true,
		Observer: func(rec Record) { observed = append(observed, rec) }})
	for _, rec := range lifecycle() {
		s.Report(rec)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := WriteExposition(&buf, reg); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, want := range []string{
		"zivsim_sweep_jobs_queued_total 4",
		`zivsim_sweep_jobs_total{outcome="done"} 1`,
		`zivsim_sweep_jobs_total{outcome="failed"} 1`,
		`zivsim_sweep_jobs_total{outcome="cache-hit"} 1`,
		`zivsim_sweep_jobs_total{outcome="skipped"} 1`,
		"zivsim_sweep_attempts_total 2",
		"zivsim_sweep_refs_simulated_total 5000",
		"zivsim_sweep_jobs_inflight 0",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}

	_, recs, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []string
	for _, rec := range recs {
		outcomes = append(outcomes, rec.Outcome)
	}
	want := []string{OutcomeFailed, OutcomeDone, OutcomeCacheHit, OutcomeSkipped}
	if strings.Join(outcomes, ",") != strings.Join(want, ",") {
		t.Fatalf("ledger outcomes = %v, want %v", outcomes, want)
	}
	if recs[1].DurUS <= 0 || recs[1].RefsPerSec <= 0 {
		t.Fatalf("done record missing duration/rate: %+v", recs[1])
	}

	// One record, every output: the ledger holds exactly the observed
	// records that carry an outcome.
	var withOutcome []Record
	for _, rec := range observed {
		if rec.Outcome != "" {
			withOutcome = append(withOutcome, rec)
		}
	}
	if len(recs) != len(withOutcome) {
		t.Fatalf("ledger has %d lines, observer saw %d outcome records", len(recs), len(withOutcome))
	}
	for i := range recs {
		if recs[i] != withOutcome[i] {
			t.Fatalf("ledger line %d = %+v, observer record %+v", i, recs[i], withOutcome[i])
		}
	}
}

// traceDoc is the subset of Chrome trace JSON the timeline tests
// inspect.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   uint64         `json:"ts"`
		Dur  uint64         `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestSpanRecorderTimeline reports a two-job lifecycle to a timeline
// sink under the fake clock and checks the exported Chrome trace:
// per-track threads, complete spans with durations, and open-span
// closure.
func TestSpanRecorderTimeline(t *testing.T) {
	s := NewSink(fakeClock(1), Outputs{Timeline: true})
	s.Report(Record{Type: SimQueued, Sim: "jobA"})
	s.Report(Record{Type: SimQueued, Sim: "jobB"})
	s.Report(Record{Type: SimAttemptStart, Sim: "jobA"}) // ends queued
	s.Report(Record{Type: SimAttemptEnd, Sim: "jobA", Outcome: OutcomeDone})
	// jobB's queued phase stays open: the trace must close it as "open".

	var buf strings.Builder
	if err := s.WriteSweepTrace(&buf, "test sweep"); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}

	var spans, meta int
	sawOpen := false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Pid != 2 {
				t.Fatalf("span %q on pid %d, want sweep pid 2", ev.Name, ev.Pid)
			}
			if ev.Name == "running" && ev.Dur == 0 {
				t.Fatalf("running span has zero duration")
			}
			if oc, ok := ev.Args["outcome"]; ok && oc == "open" {
				sawOpen = true
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// jobA: queued + running; jobB: queued (closed as open) = 3 spans.
	if spans != 3 {
		t.Fatalf("%d spans, want 3", spans)
	}
	if !sawOpen {
		t.Fatal("still-open phase not exported with outcome=open")
	}
	// process_name + one thread_name per track.
	if meta != 3 {
		t.Fatalf("%d metadata events, want 3", meta)
	}
}

// TestSpanRecorderDeterministic pins byte-identical output for the same
// record sequence under the same injected clock.
func TestSpanRecorderDeterministic(t *testing.T) {
	render := func() string {
		s := NewSink(fakeClock(7), Outputs{Timeline: true})
		s.Report(Record{Type: SimQueued, Sim: "j"})
		s.Report(Record{Type: SimAttemptStart, Sim: "j"})
		s.Report(Record{Type: SimAttemptEnd, Sim: "j", Outcome: OutcomeFailed, Err: "boom"})
		var buf strings.Builder
		if err := s.WriteSweepTrace(&buf, "d"); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("same sequence rendered differently:\n%s\nvs\n%s", a, b)
	}
}

// TestSinkConcurrentReports drives one sink with every output attached
// from several goroutines at once, as the runner's worker pool does, and
// checks that no record is lost or double-counted on any output.
func TestSinkConcurrentReports(t *testing.T) {
	const workers, jobsEach = 8, 50
	const jobs = workers * jobsEach
	reg := NewRegistry()
	path := t.TempDir() + "/run.ndjson"
	led, err := CreateLedger(path, "")
	if err != nil {
		t.Fatal(err)
	}
	var progress strings.Builder
	var observed atomic.Int64
	s := NewSink(fakeClock(1), Outputs{Registry: reg, Ledger: led, Timeline: true, Progress: &progress,
		Observer: func(Record) { observed.Add(1) }})
	for w := 0; w < workers; w++ {
		for i := 0; i < jobsEach; i++ {
			s.Report(Record{Type: SimQueued, Sim: fmt.Sprintf("w%d|j%d", w, i)})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				sim := fmt.Sprintf("w%d|j%d", w, i)
				s.Report(Record{Type: SimAttemptStart, Sim: sim, Key: sim})
				s.Report(Record{Type: SimAttemptEnd, Sim: sim, Key: sim, Outcome: OutcomeDone, Refs: 10})
			}
		}(w)
	}
	wg.Wait()
	s.Finish()
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	if got := observed.Load(); got != 3*jobs {
		t.Fatalf("observer saw %d records, want %d", got, 3*jobs)
	}
	_, recs, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != jobs {
		t.Fatalf("ledger has %d records, want %d", len(recs), jobs)
	}
	var exp strings.Builder
	if err := WriteExposition(&exp, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`zivsim_sweep_jobs_total{outcome="done"} %d`, jobs),
		fmt.Sprintf("zivsim_sweep_refs_simulated_total %d", 10*jobs),
		"zivsim_sweep_jobs_inflight 0",
	} {
		if !strings.Contains(exp.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if want := fmt.Sprintf("%d/%d runs", jobs, jobs); !strings.Contains(progress.String(), want) {
		t.Errorf("progress line never reached %q", want)
	}
	var trace strings.Builder
	if err := s.WriteSweepTrace(&trace, "concurrent"); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(trace.String()), &doc); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != 2*jobs {
		t.Fatalf("%d spans, want %d (queued + running per job)", spans, 2*jobs)
	}
}
