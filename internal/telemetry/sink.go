// The harness-facing sink. A Sink bundles the three telemetry outputs —
// metrics registry, span recorder, run ledger — behind the small set of
// lifecycle calls the runner makes (queued, attempt start/end, adoption,
// skip). Every output is optional and every method is nil-receiver
// safe, so the runner instruments unconditionally and the
// zero-configuration path stays free. Like Progress, a Sink lives in the
// wall-clock domain with an injected clock and writes only to its own
// outputs, never into simulation results; Options.Telemetry is excluded
// from cache keys for exactly that reason.
package telemetry

import (
	"strconv"
	"sync"
	"time"
)

// jobWallBuckets are the upper bounds (seconds) of the per-job
// wall-time histogram: simulations span sub-millisecond smoke jobs to
// multi-minute paper-fidelity runs.
var jobWallBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

// Event is one job-lifecycle notification delivered to a Sink observer.
// It is the streaming twin of a ledger Record: zivsimd forwards these to
// the per-job NDJSON event feed (GET /v1/jobs/{id}/events).
type Event struct {
	// Type is the lifecycle step, one of the Event* constants.
	Type string
	// Track is the in-sweep job key ("cfgLabel|mix").
	Track string
	// Key is the job's content-addressed result-store identity (empty on
	// steps that don't compute it).
	Key string
	// Cfg is the job's machine-configuration label.
	Cfg string
	// Mix is the job's workload-mix name.
	Mix string
	// Attempt is the 1-based attempt number (attempt events only).
	Attempt int
	// Outcome is the attempt or adoption outcome (Outcome* constants).
	Outcome string
	// Refs is the number of references the attempt simulated.
	Refs uint64
	// Err is the recovered panic message for retry/failed outcomes.
	Err string
}

// Event types as delivered to a Sink observer.
const (
	// EventQueued marks a deduplicated job entering the scheduler.
	EventQueued = "queued"
	// EventAttemptStart marks one simulation attempt beginning.
	EventAttemptStart = "attempt-start"
	// EventAttemptEnd marks one simulation attempt ending; Outcome is
	// done, retry or failed.
	EventAttemptEnd = "attempt-end"
	// EventAdopted marks a job served from the result store without
	// running; Outcome is cache-hit.
	EventAdopted = "adopted"
	// EventSkipped marks a job a drain prevented from running.
	EventSkipped = "skipped"
)

// Sink receives the runner's job lifecycle and fans it out to the
// configured outputs. Construct with NewSink; the zero value and the
// nil pointer are inert.
type Sink struct {
	now      func() time.Time
	spans    *SpanRecorder
	ledger   *Ledger
	observer func(Event)

	// Instruments, pre-registered so hot-path increments are pointer
	// chases, not registry lookups. All nil when no Registry is set.
	jobsQueued  *Counter
	outcomes    map[string]*Counter // per terminal outcome, fixed key set
	attempts    *Counter
	retries     *Counter
	refsTotal   *Counter
	inflight    *Gauge
	jobWallSecs *Histogram

	mu sync.Mutex
	//ziv:guards(mu)
	starts map[string]time.Time // per-track current attempt start
}

// Terminal job outcomes as they appear in ledger records and in the
// zivsim_sweep_jobs_total outcome label.
const (
	OutcomeDone     = "done"
	OutcomeRetry    = "retry"
	OutcomeFailed   = "failed"
	OutcomeCacheHit = "cache-hit"
	OutcomeSkipped  = "skipped"
)

// terminalOutcomes enumerates the outcome label values pre-registered
// on the jobs_total counter (retry is an attempt outcome, not a job
// outcome, and has its own counter).
var terminalOutcomes = []string{
	OutcomeDone, OutcomeFailed, OutcomeCacheHit, OutcomeSkipped,
}

// NewSink builds a sink reading wall-clock time from now (required;
// pass time.Now from package main). reg, spans and ledger are each
// optional (nil disables that output).
func NewSink(now func() time.Time, reg *Registry, spans *SpanRecorder, ledger *Ledger) *Sink {
	if now == nil {
		panic("telemetry: NewSink needs a clock")
	}
	s := &Sink{now: now, spans: spans, ledger: ledger,
		starts: make(map[string]time.Time)}
	if reg != nil {
		s.jobsQueued = reg.Counter("zivsim_sweep_jobs_queued_total",
			"Jobs entering the sweep scheduler (deduplicated, not yet adopted).")
		s.outcomes = make(map[string]*Counter, len(terminalOutcomes))
		for _, oc := range terminalOutcomes {
			s.outcomes[oc] = reg.Counter("zivsim_sweep_jobs_total",
				"Jobs reaching a terminal outcome.", "outcome", oc)
		}
		s.attempts = reg.Counter("zivsim_sweep_attempts_total",
			"Simulation attempts started (retries included).")
		s.retries = reg.Counter("zivsim_sweep_retries_total",
			"Attempts that failed and were retried.")
		s.refsTotal = reg.Counter("zivsim_sweep_refs_simulated_total",
			"Memory references simulated by completed attempts.")
		s.inflight = reg.Gauge("zivsim_sweep_jobs_inflight",
			"Jobs currently being simulated.")
		s.jobWallSecs = reg.Histogram("zivsim_sweep_job_wall_seconds",
			"Wall time of one simulation attempt.", jobWallBuckets)
	}
	return s
}

// SetObserver attaches fn to the sink: every lifecycle call is mirrored
// to it as an Event, after the metric/span/ledger outputs. Attach before
// handing the sink to a runner — the field is not synchronized, and the
// runner invokes the observer from its worker goroutines (fn must be
// safe for concurrent use). A nil fn detaches.
func (s *Sink) SetObserver(fn func(Event)) {
	if s == nil {
		return
	}
	s.observer = fn
}

// emit forwards one event to the observer, if attached.
func (s *Sink) emit(ev Event) {
	if s.observer != nil {
		s.observer(ev)
	}
}

// JobQueued records one deduplicated job entering the scheduler.
func (s *Sink) JobQueued(track string) {
	if s == nil {
		return
	}
	if s.jobsQueued != nil {
		s.jobsQueued.Inc()
	}
	if s.spans != nil {
		s.spans.Begin(track, "queued")
	}
	s.emit(Event{Type: EventQueued, Track: track})
}

// AttemptStart records attempt number `attempt` (1-based) beginning on
// a job.
func (s *Sink) AttemptStart(track string, attempt int) {
	if s == nil {
		return
	}
	t := s.now()
	s.mu.Lock()
	s.starts[track] = t
	s.mu.Unlock()
	if s.attempts != nil {
		s.attempts.Inc()
	}
	if s.inflight != nil {
		s.inflight.Add(1)
	}
	if s.spans != nil {
		phase := "running"
		if attempt > 1 {
			phase = "retry " + strconv.Itoa(attempt)
		}
		s.spans.Begin(track, phase)
	}
	s.emit(Event{Type: EventAttemptStart, Track: track, Attempt: attempt})
}

// AttemptEnd records the end of an attempt: outcome is OutcomeDone,
// OutcomeRetry (a failure with attempts remaining) or OutcomeFailed
// (attempts exhausted). key is the job's content-addressed identity,
// refs the references the attempt simulated (0 if it died), errMsg the
// recovered panic for retry/failed.
func (s *Sink) AttemptEnd(track, key, cfg, mix string, attempt int, outcome string, refs uint64, errMsg string) {
	if s == nil {
		return
	}
	t := s.now()
	s.mu.Lock()
	start, ok := s.starts[track]
	delete(s.starts, track)
	s.mu.Unlock()
	wall := time.Duration(0)
	if ok && t.After(start) {
		wall = t.Sub(start)
	}
	if s.inflight != nil {
		s.inflight.Add(-1)
	}
	if s.jobWallSecs != nil {
		s.jobWallSecs.Observe(wall.Seconds())
	}
	switch outcome {
	case OutcomeRetry:
		if s.retries != nil {
			s.retries.Inc()
		}
	default:
		if c := s.outcomes[outcome]; c != nil {
			c.Inc()
		}
	}
	if s.refsTotal != nil && refs > 0 {
		s.refsTotal.Add(refs)
	}
	if s.spans != nil {
		args := map[string]any{"outcome": outcome, "attempt": attempt}
		if errMsg != "" {
			args["err"] = errMsg
		}
		s.spans.End(track, args)
	}
	rate := 0.0
	if secs := wall.Seconds(); secs > 0 && refs > 0 {
		rate = float64(refs) / secs
	}
	s.ledger.WriteRecord(Record{
		Key: key, Cfg: cfg, Mix: mix, Attempt: attempt, Outcome: outcome,
		WallUS: int64(wall / time.Microsecond), Refs: refs, RefsPerSec: rate,
		Err: errMsg,
	})
	s.emit(Event{Type: EventAttemptEnd, Track: track, Key: key, Cfg: cfg, Mix: mix,
		Attempt: attempt, Outcome: outcome, Refs: refs, Err: errMsg})
}

// JobAdopted records a job served from the result store without
// running (outcome OutcomeCacheHit).
func (s *Sink) JobAdopted(track, key, cfg, mix string) {
	if s == nil {
		return
	}
	if c := s.outcomes[OutcomeCacheHit]; c != nil {
		c.Inc()
	}
	if s.spans != nil {
		s.spans.End(track, map[string]any{"outcome": OutcomeCacheHit})
	}
	s.ledger.WriteRecord(Record{Key: key, Cfg: cfg, Mix: mix, Outcome: OutcomeCacheHit})
	s.emit(Event{Type: EventAdopted, Track: track, Key: key, Cfg: cfg, Mix: mix, Outcome: OutcomeCacheHit})
}

// JobSkipped records a job a drain prevented from running.
func (s *Sink) JobSkipped(track, key, cfg, mix string) {
	if s == nil {
		return
	}
	if c := s.outcomes[OutcomeSkipped]; c != nil {
		c.Inc()
	}
	if s.spans != nil {
		s.spans.End(track, map[string]any{"outcome": OutcomeSkipped})
	}
	s.ledger.WriteRecord(Record{Key: key, Cfg: cfg, Mix: mix, Outcome: OutcomeSkipped})
	s.emit(Event{Type: EventSkipped, Track: track, Key: key, Cfg: cfg, Mix: mix, Outcome: OutcomeSkipped})
}

// Spans exposes the sink's span recorder (nil if spans are disabled),
// for writing the sweep trace after the run.
func (s *Sink) Spans() *SpanRecorder {
	if s == nil {
		return nil
	}
	return s.spans
}
