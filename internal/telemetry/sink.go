// The harness-facing sink. The runner reports each job-lifecycle step —
// queued, attempt start, attempt end, adopted, skipped — once, as a
// Record, through Sink.Report, and the sink hands that same value to
// every configured output: the metrics registry, the sweep timeline,
// the run ledger, the live progress line and an observer (zivsimd's
// event feed). Every output is optional and a nil *Sink is inert, so
// the runner reports unconditionally. A Sink lives in the wall-clock
// domain with an injected clock and writes only to its own outputs,
// never into simulation results; Options.Telemetry is excluded from
// cache keys for exactly that reason.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"zivsim/internal/obs"
)

// jobWallBuckets are the upper bounds (seconds) of the per-job
// wall-time histogram: simulations span sub-millisecond smoke jobs to
// multi-minute paper-fidelity runs.
var jobWallBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

// Record is one job-lifecycle step. The runner fills in what it knows
// and the sink adds DurUS and RefsPerSec on an attempt end. The records
// that carry an Outcome are the run ledger's lines; zivsimd streams
// every record as a sim-* line of the job's event feed.
type Record struct {
	// Type is the step, one of the Sim* constants. zivsimd's job-level
	// feed events reuse it for their own types.
	Type string `json:"type"`
	// Sim is the job's in-sweep key ("cfgLabel|mix"), one timeline
	// track.
	Sim string `json:"sim,omitempty"`
	// Key is the job's content-addressed identity — the same SHA-256
	// key that names its result-store entry.
	Key string `json:"key,omitempty"`
	// Cfg is the configuration label of the job.
	Cfg string `json:"cfg,omitempty"`
	// Mix is the workload mix name of the job.
	Mix string `json:"mix,omitempty"`
	// Outcome is the job's terminal outcome, on the step that settles
	// it: done or failed on an attempt end, cache-hit on an adoption,
	// skipped on a skip.
	Outcome string `json:"outcome,omitempty"`
	// DurUS is the attempt's wall time in microseconds, on attempt ends.
	DurUS int64 `json:"dur_us,omitempty"`
	// Refs is, on an attempt end, the number of memory references the
	// attempt simulated; on a queued step, the job's nominal references
	// (cores x (warmup + measure)), which weight the progress ETA.
	Refs uint64 `json:"refs,omitempty"`
	// RefsPerSec is the attempt's simulation rate, on attempt ends.
	RefsPerSec float64 `json:"refs_per_sec,omitempty"`
	// Err carries the recovered panic message on a failed attempt end.
	Err string `json:"err,omitempty"`
}

// Lifecycle step types, as they appear in Record.Type.
const (
	// SimQueued marks a deduplicated job entering the scheduler.
	SimQueued = "sim-queued"
	// SimAttemptStart marks a job's simulation beginning (a job runs
	// once per sweep).
	SimAttemptStart = "sim-attempt-start"
	// SimAttemptEnd marks a job's simulation ending; Outcome is done or
	// failed.
	SimAttemptEnd = "sim-attempt-end"
	// SimAdopted marks a job served from the result store without
	// running; Outcome is cache-hit.
	SimAdopted = "sim-adopted"
	// SimSkipped marks a job a drain prevented from running; Outcome is
	// skipped.
	SimSkipped = "sim-skipped"
)

// Outcomes as they appear in Record.Outcome and in the
// zivsim_sweep_jobs_total outcome label.
const (
	OutcomeDone     = "done"
	OutcomeFailed   = "failed"
	OutcomeCacheHit = "cache-hit"
	OutcomeSkipped  = "skipped"
)

// TerminalOutcomes lists every outcome, in report order. Each job
// settles on exactly one; the jobs_total counter pre-registers one
// series per value and zivreport's ledger table prints one row per
// value. Read-only.
var TerminalOutcomes = []string{
	OutcomeDone, OutcomeCacheHit, OutcomeFailed, OutcomeSkipped,
}

// Outputs selects what a Sink feeds; every output is optional.
type Outputs struct {
	// Registry receives the sweep metrics. With nil the sink counts
	// into a private registry nobody reads.
	Registry *Registry
	// Ledger receives every record that carries an Outcome.
	Ledger *Ledger
	// Timeline records one phase track per job for WriteSweepTrace.
	Timeline bool
	// Progress receives the live progress line (stderr in the CLI).
	Progress io.Writer
	// Observer receives every record, after the other outputs. The
	// runner reports from its worker goroutines, so it must be safe for
	// concurrent use.
	Observer func(Record)
}

// phase is a job's timeline phase in progress (queued or running) and
// the time it began.
type phase struct {
	name  string
	start time.Time
}

// Sink receives the runner's lifecycle records and fans them out to its
// Outputs. Construct with NewSink; the nil pointer is inert. Safe for
// concurrent use by the runner's worker pool.
type Sink struct {
	now func() time.Time
	out Outputs

	// Instruments, pre-registered so hot-path increments are pointer
	// chases, not registry lookups.
	jobsQueued  *Counter
	outcomes    map[string]*Counter // per terminal outcome, fixed key set
	attempts    *Counter
	refsTotal   *Counter
	inflight    *Gauge
	jobWallSecs *Histogram

	mu sync.Mutex
	// epoch is the first clock reading: timeline timestamps and the
	// progress rate count from it.
	//ziv:guards(mu)
	epoch time.Time
	// open holds each job's phase in progress. Its start times the
	// attempt an attempt end closes, and its name labels the span.
	//ziv:guards(mu)
	open map[string]phase
	// spans are the finished phases (with Outputs.Timeline).
	//ziv:guards(mu)
	spans []obs.TimelineSpan
	// Progress-line tallies (with Outputs.Progress): jobs queued,
	// finished (done includes cached), refs simulated, the nominal refs
	// of the jobs queued and finished, each unfinished job's nominal
	// refs, and the throttle state.
	//ziv:guards(mu)
	queued, done, cached, failed int
	//ziv:guards(mu)
	refs, queuedRefs, finishedRefs uint64
	//ziv:guards(mu)
	weights map[string]uint64
	//ziv:guards(mu)
	rendered bool
	//ziv:guards(mu)
	last time.Time
}

// NewSink builds a sink reading wall-clock time from now (required;
// pass time.Now from package main, tests pass a fake) and feeding out.
func NewSink(now func() time.Time, out Outputs) *Sink {
	if now == nil {
		panic("telemetry: NewSink needs a clock")
	}
	reg := out.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	s := &Sink{now: now, out: out, open: make(map[string]phase),
		outcomes: make(map[string]*Counter, len(TerminalOutcomes)),
		weights:  make(map[string]uint64)}
	s.jobsQueued = reg.Counter("zivsim_sweep_jobs_queued_total",
		"Jobs entering the sweep scheduler (deduplicated, not yet adopted).")
	for _, oc := range TerminalOutcomes {
		s.outcomes[oc] = reg.Counter("zivsim_sweep_jobs_total",
			"Jobs reaching a terminal outcome.", "outcome", oc)
	}
	s.attempts = reg.Counter("zivsim_sweep_attempts_total",
		"Simulation attempts started (one per simulated job).")
	s.refsTotal = reg.Counter("zivsim_sweep_refs_simulated_total",
		"Memory references simulated by completed attempts.")
	s.inflight = reg.Gauge("zivsim_sweep_jobs_inflight",
		"Jobs currently being simulated.")
	s.jobWallSecs = reg.Histogram("zivsim_sweep_job_wall_seconds",
		"Wall time of one simulation attempt.", jobWallBuckets)
	return s
}

// Report hands one lifecycle record to every output. On an attempt end
// the sink first fills in DurUS and RefsPerSec from the attempt's open
// phase.
func (s *Sink) Report(rec Record) {
	if s == nil {
		return
	}
	s.mu.Lock()
	t := s.stampLocked()
	wall := s.advanceLocked(rec, t)
	if rec.Type == SimAttemptEnd {
		rec.DurUS = int64(wall / time.Microsecond)
		if secs := wall.Seconds(); secs > 0 && rec.Refs > 0 {
			rec.RefsPerSec = float64(rec.Refs) / secs
		}
	}
	s.tallyLocked(rec, t)
	s.mu.Unlock()

	switch rec.Type {
	case SimQueued:
		s.jobsQueued.Inc()
	case SimAttemptStart:
		s.attempts.Inc()
		s.inflight.Add(1)
	case SimAttemptEnd:
		s.inflight.Add(-1)
		s.jobWallSecs.Observe(wall.Seconds())
		s.refsTotal.Add(rec.Refs)
	}
	if c := s.outcomes[rec.Outcome]; c != nil {
		c.Inc()
	}
	if rec.Outcome != "" {
		s.out.Ledger.WriteRecord(rec)
	}
	if s.out.Observer != nil {
		s.out.Observer(rec)
	}
}

// stampLocked reads the clock, establishing the epoch on first use.
// Callers hold s.mu.
func (s *Sink) stampLocked() time.Time {
	t := s.now()
	if s.epoch.IsZero() {
		s.epoch = t
	}
	return t
}

// advanceLocked moves rec's job along its timeline at t: a queued or
// attempt-start record opens a phase, ending the one before (phases on
// one track never overlap); any other record ends the open phase with
// its outcome. It returns how long the ended phase ran. Callers hold
// s.mu.
func (s *Sink) advanceLocked(rec Record, t time.Time) time.Duration {
	next := ""
	switch rec.Type {
	case SimQueued:
		next = "queued"
	case SimAttemptStart:
		next = "running"
	}
	var wall time.Duration
	if p, ok := s.open[rec.Sim]; ok {
		delete(s.open, rec.Sim)
		if t.After(p.start) {
			wall = t.Sub(p.start)
		}
		if s.out.Timeline {
			var args map[string]any
			if next == "" {
				args = map[string]any{"outcome": rec.Outcome}
				if rec.Err != "" {
					args["err"] = rec.Err
				}
			}
			s.spans = append(s.spans, s.spanLocked(rec.Sim, p, t, args))
		}
	}
	if next != "" {
		s.open[rec.Sim] = phase{name: next, start: t}
	}
	return wall
}

// spanLocked renders phase p of track sim, ended at end, as a timeline
// span. Callers hold s.mu.
func (s *Sink) spanLocked(sim string, p phase, end time.Time, args map[string]any) obs.TimelineSpan {
	from, to := s.sinceEpochLocked(p.start), s.sinceEpochLocked(end)
	dur := uint64(0)
	if to > from {
		dur = to - from
	}
	return obs.TimelineSpan{Track: sim, Name: p.name, StartUS: from, DurUS: dur, Args: args}
}

// sinceEpochLocked converts t to microseconds since the epoch. Callers
// hold s.mu.
func (s *Sink) sinceEpochLocked(t time.Time) uint64 {
	d := t.Sub(s.epoch)
	if d < 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}

// tallyLocked counts rec into the progress line and, when it finishes a
// job, rewrites the line. Callers hold s.mu.
func (s *Sink) tallyLocked(rec Record, t time.Time) {
	if s.out.Progress == nil {
		return
	}
	switch rec.Outcome {
	case "":
		if rec.Type == SimQueued {
			s.queued++
			s.queuedRefs += rec.Refs
			s.weights[rec.Sim] = rec.Refs
		}
		return
	case OutcomeDone:
		s.done++
		s.refs += rec.Refs
	case OutcomeCacheHit:
		s.done++
		s.cached++
	case OutcomeFailed:
		s.failed++
	default: // a skip finishes no job
		return
	}
	s.finishedRefs += s.weights[rec.Sim]
	delete(s.weights, rec.Sim)
	s.renderLocked(t, s.done+s.failed == s.queued)
}

// renderLocked rewrites the progress line, throttled to ~5 Hz unless
// force. The ETA weights each job by its nominal refs, since the jobs of
// one sweep can differ in core count; a failed job counts toward it like
// a finished one, so the estimate keeps converging. Callers hold s.mu.
func (s *Sink) renderLocked(t time.Time, force bool) {
	if s.rendered && !force && t.Sub(s.last) < 200*time.Millisecond {
		return
	}
	s.rendered, s.last = true, t
	elapsed := t.Sub(s.epoch)
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(s.refs) / secs
	}
	eta := "?"
	if s.finishedRefs > 0 && s.queuedRefs > s.finishedRefs {
		rem := time.Duration(float64(elapsed) / float64(s.finishedRefs) * float64(s.queuedRefs-s.finishedRefs))
		eta = rem.Round(time.Second).String()
	} else if s.queued == s.done+s.failed {
		eta = "0s"
	}
	failed := ""
	if s.failed > 0 {
		failed = fmt.Sprintf(" | %d failed", s.failed)
	}
	fmt.Fprintf(s.out.Progress, "\r%d/%d runs | %d cached%s | %.2fM refs/s | ETA %s   ",
		s.done, s.queued, s.cached, failed, rate/1e6, eta)
}

// Finish force-renders the progress line and terminates it with a
// newline. A no-op without Outputs.Progress.
func (s *Sink) Finish() {
	if s == nil || s.out.Progress == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.renderLocked(s.stampLocked(), true)
	fmt.Fprintln(s.out.Progress)
}

// WriteSweepTrace renders the timeline as Chrome trace_event JSON via
// the obs timeline writer, one track per job; label names the sweep in
// the trace metadata. Phases still open are emitted as spans ending now,
// flagged outcome=open, so a drained sweep still exports a complete
// timeline. Without Outputs.Timeline the trace holds no spans.
func (s *Sink) WriteSweepTrace(w io.Writer, label string) error {
	var spans []obs.TimelineSpan
	if s != nil && s.out.Timeline {
		s.mu.Lock()
		t := s.stampLocked()
		spans = append(spans, s.spans...)
		sims := make([]string, 0, len(s.open))
		for sim := range s.open {
			sims = append(sims, sim)
		}
		sort.Strings(sims)
		for _, sim := range sims {
			spans = append(spans, s.spanLocked(sim, s.open[sim], t, map[string]any{"outcome": "open"}))
		}
		s.mu.Unlock()
	}
	return obs.WriteTimeline(w, label, spans)
}
