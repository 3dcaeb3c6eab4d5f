package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// progressSink builds a sink whose only output is the progress line,
// reading a clock the test moves by hand.
func progressSink(buf *bytes.Buffer, clock *time.Time) *Sink {
	return NewSink(func() time.Time { return *clock }, Outputs{Progress: buf})
}

// queue reports n jobs, job.0 to job.<n-1>, entering the scheduler,
// each weighing refs nominal references.
func queue(s *Sink, n int, refs uint64) {
	for i := 0; i < n; i++ {
		s.Report(Record{Type: SimQueued, Sim: "job." + strconv.Itoa(i), Refs: refs})
	}
}

// finish reports job.<i> finishing with outcome (done, failed or
// cache-hit) after simulating refs references.
func finish(s *Sink, i int, outcome string, refs uint64) {
	typ := SimAttemptEnd
	if outcome == OutcomeCacheHit {
		typ = SimAdopted
	}
	s.Report(Record{Type: typ, Sim: "job." + strconv.Itoa(i), Outcome: outcome, Refs: refs})
}

// TestProgressThrottleBoundary pins the line's 5 Hz throttle at its
// exact edges: a render 199ms after the last one is suppressed, one at
// 200ms is emitted.
func TestProgressThrottleBoundary(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	s := progressSink(&buf, &clock)
	queue(s, 10, 1000)

	clock = clock.Add(time.Second)
	finish(s, 0, OutcomeDone, 1000) // first render always prints
	n := buf.Len()
	if n == 0 {
		t.Fatal("first finished job rendered nothing")
	}

	clock = clock.Add(199 * time.Millisecond)
	finish(s, 1, OutcomeDone, 1000)
	if buf.Len() != n {
		t.Fatalf("render 199ms after last was not throttled: %q", buf.String()[n:])
	}

	clock = clock.Add(time.Millisecond) // exactly 200ms since last render
	finish(s, 2, OutcomeDone, 1000)
	if buf.Len() == n {
		t.Fatal("render 200ms after last was throttled; want ~5 Hz updates")
	}
	if !strings.Contains(buf.String(), "3/10 runs") {
		t.Fatalf("suppressed renders lost state: %q", buf.String())
	}
}

// TestProgressJobFailed pins failure accounting: a failed job counts
// toward the ETA (so it keeps converging), surfaces a failure segment,
// and never counts as done.
func TestProgressJobFailed(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	s := progressSink(&buf, &clock)
	queue(s, 4, 50_000)

	clock = clock.Add(2 * time.Second)
	finish(s, 0, OutcomeDone, 50_000)
	clock = clock.Add(2 * time.Second)
	finish(s, 1, OutcomeFailed, 0)
	out := buf.String()
	if !strings.Contains(out, "1/4 runs") {
		t.Fatalf("failed job counted as done: %q", out)
	}
	if !strings.Contains(out, "| 1 failed") {
		t.Fatalf("failure segment missing: %q", out)
	}
	// Half the jobs are finished after 4s, so the ETA must read 4s —
	// proof the failed job feeds the estimate.
	if !strings.Contains(out, "ETA 4s") {
		t.Fatalf("failed job not counted by ETA: %q", out)
	}

	// done+failed == queued forces the final render through the throttle.
	clock = clock.Add(time.Millisecond)
	finish(s, 2, OutcomeDone, 50_000)
	clock = clock.Add(time.Millisecond)
	finish(s, 3, OutcomeFailed, 0)
	out = buf.String()
	if !strings.Contains(out, "2/4 runs") || !strings.Contains(out, "| 2 failed") {
		t.Fatalf("terminal render not forced past throttle: %q", out)
	}
	if !strings.Contains(out, "ETA 0s") {
		t.Fatalf("completed sweep ETA = %q, want 0s", out)
	}
}

// TestProgressFinish pins Finish semantics: it force-renders the final
// state and terminates the line with a newline, and a sweep with no
// jobs still gets one "0/0 runs" line.
func TestProgressFinish(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	s := progressSink(&buf, &clock)
	queue(s, 1, 2_000_000)
	clock = clock.Add(time.Second)
	finish(s, 0, OutcomeDone, 2_000_000)
	n := buf.Len()
	clock = clock.Add(10 * time.Millisecond)
	s.Finish()
	out := buf.String()
	if buf.Len() == n {
		t.Fatal("Finish did not force a final render")
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Finish did not terminate the line: %q", out)
	}
	if !strings.Contains(out, "1/1 runs") || !strings.Contains(out, "2.00M refs/s") {
		t.Fatalf("final state = %q", out)
	}

	// A sink with zero jobs renders "0/0 runs | ... ETA 0s" once.
	buf.Reset()
	s = progressSink(&buf, &clock)
	s.Finish()
	if !strings.Contains(buf.String(), "0/0 runs") || !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("empty-sweep Finish = %q", buf.String())
	}
}

// TestProgressReporter reports a small sweep under a fake clock and
// checks the rendered line and its throttling.
func TestProgressReporter(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	s := progressSink(&buf, &clock)

	queue(s, 3, 80_000)
	clock = clock.Add(2 * time.Second)
	finish(s, 0, OutcomeDone, 80_000)
	out := buf.String()
	if !strings.Contains(out, "1/3 runs") {
		t.Fatalf("first render = %q", out)
	}
	if !strings.Contains(out, "0.04M refs/s") {
		t.Fatalf("rate missing from %q", out)
	}
	if !strings.Contains(out, "ETA 4s") {
		t.Fatalf("eta missing from %q", out)
	}

	// Within the throttle window nothing new is printed.
	n := buf.Len()
	clock = clock.Add(50 * time.Millisecond)
	finish(s, 1, OutcomeCacheHit, 0)
	if buf.Len() != n {
		t.Fatalf("throttled render still wrote output: %q", buf.String()[n:])
	}

	// The final job always renders, and Finish terminates the line.
	clock = clock.Add(time.Second)
	finish(s, 2, OutcomeDone, 80_000)
	s.Finish()
	out = buf.String()
	if !strings.Contains(out, "3/3 runs") || !strings.Contains(out, "1 cached") {
		t.Fatalf("final render = %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("Finish did not terminate the line: %q", out)
	}
}

// TestProgressETAWeightsByRefs pins the ETA's weighting: one 32-core job
// and four 8-core jobs, the big one finishing first. It is a fifth of
// the jobs but half the references, so half the work is left.
func TestProgressETAWeightsByRefs(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	s := progressSink(&buf, &clock)
	s.Report(Record{Type: SimQueued, Sim: "tpce", Refs: 32 * 1000})
	queue(s, 4, 8*1000)

	clock = clock.Add(4 * time.Second)
	s.Report(Record{Type: SimAttemptEnd, Sim: "tpce", Outcome: OutcomeDone, Refs: 32 * 1000})
	// Counting jobs would read 16s.
	if out := buf.String(); !strings.Contains(out, "1/5 runs") || !strings.Contains(out, "ETA 4s") {
		t.Fatalf("after the 32-core job: %q, want 1/5 runs and ETA 4s", out)
	}

	clock = clock.Add(time.Second)
	finish(s, 0, OutcomeDone, 8*1000)
	// 40k of 64k references in 5s: 24k left, 3s.
	if out := buf.String(); !strings.Contains(out, "2/5 runs") || !strings.Contains(out, "ETA 3s") {
		t.Fatalf("after an 8-core job: %q, want 2/5 runs and ETA 3s", out)
	}
}
