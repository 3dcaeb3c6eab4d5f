package telemetry

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock returns an injected clock that advances stepMS milliseconds
// on every reading, starting from a fixed epoch. Atomic so concurrent
// sink/recorder paths stay race-free under -race.
func fakeClock(stepMS int64) func() time.Time {
	var ticks atomic.Int64
	return func() time.Time {
		n := ticks.Add(1)
		return time.Unix(1_000_000, 0).Add(time.Duration(n*stepMS) * time.Millisecond)
	}
}

// traceDoc is the subset of Chrome trace JSON the span tests inspect.
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

// TestSpanRecorderTimeline drives a two-job lifecycle under the fake
// clock and checks the exported Chrome trace: per-track threads,
// complete spans with durations, and open-span closure.
func TestSpanRecorderTimeline(t *testing.T) {
	r := NewSpanRecorder(fakeClock(1))
	r.Begin("jobA", "queued")
	r.Begin("jobB", "queued")
	r.Begin("jobA", "running") // implicitly ends queued
	r.End("jobA", map[string]any{"outcome": "done"})
	// jobB's queued phase stays open: snapshot must close it as "open".

	var buf strings.Builder
	if err := r.WriteSweepTrace(&buf, "test sweep"); err != nil {
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
// event sequence under the same injected clock.
func TestSpanRecorderDeterministic(t *testing.T) {
	render := func() string {
		r := NewSpanRecorder(fakeClock(7))
		r.Begin("j", "queued")
		r.Begin("j", "running")
		r.End("j", map[string]any{"outcome": "failed", "err": "boom"})
		var buf strings.Builder
		if err := r.WriteSweepTrace(&buf, "d"); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("same sequence rendered differently:\n%s\nvs\n%s", a, b)
	}
}

// TestSinkLifecycle drives the sink through a queued → retry → done
// lifecycle plus an adoption and a skip, then checks every surface:
// metrics, ledger, spans.
func TestSinkLifecycle(t *testing.T) {
	reg := NewRegistry()
	spans := NewSpanRecorder(fakeClock(1))
	path := t.TempDir() + "/run.ndjson"
	led, err := CreateLedger(path, "opt")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSink(fakeClock(1), reg, spans, led)

	s.JobQueued("j1")
	s.AttemptStart("j1", 1)
	s.AttemptEnd("j1", "key1", "cfg", "mix", 1, OutcomeRetry, 0, "boom")
	s.AttemptStart("j1", 2)
	s.AttemptEnd("j1", "key1", "cfg", "mix", 2, OutcomeDone, 5000, "")
	s.JobQueued("j2")
	s.JobAdopted("j2", "key2", "cfg", "mix2")
	s.JobQueued("j3")
	s.JobSkipped("j3", "key3", "cfg", "mix3")
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := WriteExposition(&buf, reg); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, want := range []string{
		"zivsim_sweep_jobs_queued_total 3",
		`zivsim_sweep_jobs_total{outcome="done"} 1`,
		`zivsim_sweep_jobs_total{outcome="cache-hit"} 1`,
		`zivsim_sweep_jobs_total{outcome="skipped"} 1`,
		"zivsim_sweep_attempts_total 2",
		"zivsim_sweep_retries_total 1",
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
	want := []string{OutcomeRetry, OutcomeDone, OutcomeCacheHit, OutcomeSkipped}
	if strings.Join(outcomes, ",") != strings.Join(want, ",") {
		t.Fatalf("ledger outcomes = %v, want %v", outcomes, want)
	}
	if recs[1].WallUS <= 0 || recs[1].RefsPerSec <= 0 {
		t.Fatalf("done record missing wall/rate: %+v", recs[1])
	}

	// A nil sink must be inert on every call.
	var nilSink *Sink
	nilSink.JobQueued("x")
	nilSink.AttemptStart("x", 1)
	nilSink.AttemptEnd("x", "k", "c", "m", 1, OutcomeDone, 1, "")
	nilSink.JobAdopted("x", "k", "c", "m")
	nilSink.JobSkipped("x", "k", "c", "m")
	if nilSink.Spans() != nil {
		t.Fatal("nil sink returned a span recorder")
	}
}
