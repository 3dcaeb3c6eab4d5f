// HTTP surface of the job API. Server owns the job store, the admission
// queues and the executor pool (jobs.go); this file is its wiring: the
// configuration, the route inventory (the single source of truth the
// docs test checks docs/api.md against — Handler builds the mux from
// it, so a route cannot exist without an inventory entry), the JSON
// handlers, and the per-request deadline middleware. The base telemetry
// endpoints (/metrics, /healthz, pprof) are mounted through
// telemetry.RegisterRoutes, shared verbatim with zivsim -telemetry-addr.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"zivsim/internal/harness/store"
	"zivsim/internal/telemetry"
)

// Config configures a Server. The zero value is not usable; Now is
// required and New fills the remaining defaults.
type Config struct {
	// Now supplies wall-clock time for event and job timestamps (pass
	// time.Now from package main; tests inject a fake clock).
	Now func() time.Time
	// StateDir is the server's on-disk state root; the shared result
	// store (cache/) and the completed-job records (jobs/) live under
	// it. Empty disables persistence (in-memory only).
	StateDir string
	// QueueDepth bounds each client's pending (queued + running) jobs;
	// submissions beyond it are rejected with 429. Default 8.
	QueueDepth int
	// Workers is the executor-pool size: how many sweeps run
	// concurrently. Default 1 (sweeps already parallelize internally).
	Workers int
	// Parallelism caps every job's within-sweep parallelism, whatever
	// the submission asks for. 0 leaves submissions uncapped.
	Parallelism int
	// RequestTimeout bounds every non-streaming request's context.
	// Default 10s. The events stream is exempt: it lives until the feed
	// closes or the client disconnects.
	RequestTimeout time.Duration
}

// Server is the zivsimd application object: job store, queues, executor
// pool and HTTP handlers. Construct with New, mount Handler, and call
// Run for the execution lifetime.
type Server struct {
	cfg Config
	reg *telemetry.Registry

	cacheDir string    // harness result store, shared across jobs
	records  store.Dir // completed-job records, one per job identity

	workAvail chan struct{} // wake-up signal for idle executors, cap 1

	// Pre-registered metrics (never nil; reg is always set).
	mSubmitted *telemetry.Counter
	mDeduped   *telemetry.Counter
	mRejected  *telemetry.Counter
	mPending   *telemetry.Gauge
	mTerminal  map[JobState]*telemetry.Counter
	mRequests  map[string]*telemetry.Counter // by route pattern

	mu sync.Mutex
	//ziv:guards(mu)
	jobs map[string]*Job // by identity
	//ziv:guards(mu)
	order []string // job IDs in first-install order (listing order)
	//ziv:guards(mu)
	queues map[string][]*Job // per-client FIFO of queued jobs
	//ziv:guards(mu)
	ring []string // clients in first-seen order, for round-robin claim
	//ziv:guards(mu)
	inRing map[string]bool
	//ziv:guards(mu)
	rr int // round-robin cursor into ring
	//ziv:guards(mu)
	pendingCount map[string]int // per-client queued+running jobs
	//ziv:guards(mu)
	runningJobs map[string]*Job // claimed, not yet finished
	//ziv:guards(mu)
	draining bool
	//ziv:guards(mu)
	abandoned bool
}

// New builds a Server, creating the state directory layout when
// configured. The error is reserved for an unusable configuration or
// state directory.
func New(cfg Config) (*Server, error) {
	if cfg.Now == nil {
		return nil, fmt.Errorf("server: Config.Now is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	s := &Server{
		cfg:          cfg,
		reg:          telemetry.NewRegistry(),
		workAvail:    make(chan struct{}, 1),
		jobs:         make(map[string]*Job),
		queues:       make(map[string][]*Job),
		inRing:       make(map[string]bool),
		pendingCount: make(map[string]int),
		runningJobs:  make(map[string]*Job),
	}
	if cfg.StateDir != "" {
		s.cacheDir = filepath.Join(cfg.StateDir, "cache")
		s.records = store.Dir(filepath.Join(cfg.StateDir, "jobs"))
		for _, d := range []string{s.cacheDir, string(s.records)} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, fmt.Errorf("server: state dir: %v", err)
			}
		}
	}
	s.mSubmitted = s.reg.Counter("zivsimd_jobs_submitted_total",
		"Fresh job submissions admitted to a queue.")
	s.mDeduped = s.reg.Counter("zivsimd_jobs_deduped_total",
		"Submissions answered by an existing job under the same identity.")
	s.mRejected = s.reg.Counter("zivsimd_jobs_rejected_total",
		"Submissions rejected because the client's queue was full.")
	s.mPending = s.reg.Gauge("zivsimd_jobs_pending",
		"Jobs admitted but not yet terminal (queued + running).")
	s.mTerminal = make(map[JobState]*telemetry.Counter, 3)
	for _, st := range []JobState{StateDone, StateFailed, StateCanceled} {
		s.mTerminal[st] = s.reg.Counter("zivsimd_jobs_total",
			"Jobs reaching a terminal state.", "state", string(st))
	}
	s.mRequests = make(map[string]*telemetry.Counter, len(Routes()))
	for _, rt := range Routes() {
		if s.handlerFor(rt.Pattern) == nil {
			continue // telemetry-owned; instrumented there, not here
		}
		s.mRequests[rt.Pattern] = s.reg.Counter("zivsimd_http_requests_total",
			"API requests served, by route.", "route", rt.Pattern)
	}
	return s, nil
}

// nowUS is the server's wall clock in µs since epoch.
func (s *Server) nowUS() int64 {
	return s.cfg.Now().UnixMicro()
}

// health is the /healthz status source: "draining" (served 503) once
// shutdown has begun, else "ok".
func (s *Server) health() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "draining"
	}
	return "ok"
}

// Route is one entry of the API's route inventory.
type Route struct {
	// Pattern is the ServeMux pattern ("POST /v1/jobs").
	Pattern string
	// Doc is the one-line endpoint description; docs/api.md documents
	// every route under a heading containing Pattern, and the docs test
	// fails when inventory and document drift apart.
	Doc string
}

// Routes is the API's complete route inventory. Handler registers
// exactly these patterns (the telemetry rows are mounted through
// telemetry.RegisterRoutes), and TestAPIDocsInSync holds docs/api.md to
// the same list — add an endpoint here and the compiler, the mux and
// the docs test all notice.
func Routes() []Route {
	return []Route{
		{Pattern: "POST /v1/jobs", Doc: "Submit a sweep (figures + options); dedupes by content identity."},
		{Pattern: "GET /v1/jobs", Doc: "List every job the server knows, in admission order."},
		{Pattern: "GET /v1/jobs/{id}", Doc: "Full job status, result tables included once available."},
		{Pattern: "GET /v1/jobs/{id}/events", Doc: "Stream the job's progress feed as NDJSON; ?from=N resumes."},
		{Pattern: "DELETE /v1/jobs/{id}", Doc: "Cancel a queued or running job."},
		{Pattern: "GET /metrics", Doc: "Prometheus text exposition of the server and sweep metrics."},
		{Pattern: "GET /healthz", Doc: "Liveness/readiness JSON; 503 once the server is draining."},
		{Pattern: "GET /debug/pprof/", Doc: "Go runtime profiling endpoints (pprof index and profiles)."},
	}
}

// handlerFor maps an inventory pattern to its handler; nil marks the
// patterns telemetry.RegisterRoutes owns. An unknown pattern is a bug
// in the inventory and panics at Handler construction.
func (s *Server) handlerFor(pattern string) http.HandlerFunc {
	switch pattern {
	case "POST /v1/jobs":
		return s.handleSubmit
	case "GET /v1/jobs":
		return s.handleList
	case "GET /v1/jobs/{id}":
		return s.handleGet
	case "GET /v1/jobs/{id}/events":
		return s.handleEvents
	case "DELETE /v1/jobs/{id}":
		return s.handleCancel
	case "GET /metrics", "GET /healthz", "GET /debug/pprof/":
		return nil
	default:
		panic(fmt.Sprintf("server: route %q has no handler", pattern))
	}
}

// Handler builds the server's mux from the route inventory plus the
// shared telemetry endpoints. Every non-streaming route runs under the
// configured request deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range Routes() {
		h := s.handlerFor(rt.Pattern)
		if h == nil {
			continue
		}
		h = s.counted(rt.Pattern, h)
		if rt.Pattern != "GET /v1/jobs/{id}/events" {
			h = s.withDeadline(h)
		}
		mux.HandleFunc(rt.Pattern, h)
	}
	telemetry.RegisterRoutes(mux, s.reg, s.health)
	return mux
}

// counted wraps h with the route's request counter.
func (s *Server) counted(pattern string, h http.HandlerFunc) http.HandlerFunc {
	c := s.mRequests[pattern]
	return func(w http.ResponseWriter, r *http.Request) {
		if c != nil {
			c.Inc()
		}
		h(w, r)
	}
}

// withDeadline bounds the request context so a stuck client or handler
// cannot pin resources past the configured timeout.
func (s *Server) withDeadline(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// clientID identifies the submitting client for queue accounting: the
// X-Ziv-Client header, truncated, or "default".
func clientID(r *http.Request) string {
	c := strings.TrimSpace(r.Header.Get("X-Ziv-Client"))
	if c == "" {
		return "default"
	}
	if len(c) > 64 {
		c = c[:64]
	}
	return c
}

// apiError is the JSON error envelope every non-2xx API response uses.
type apiError struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encode errors mean the client went away; nothing useful to do.
	_ = json.NewEncoder(w).Encode(v)
}

// fail writes an apiError response.
func fail(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit implements POST /v1/jobs: decode, validate, admit (or
// dedupe). Fresh admissions answer 202, dedupes 200, full queues 429,
// a draining server 503.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		fail(w, http.StatusBadRequest, "invalid submission: %v", err)
		return
	}
	st, outcome, err := s.submit(clientID(r), sub)
	switch outcome {
	case submitBad:
		fail(w, http.StatusBadRequest, "%v", err)
	case submitDraining:
		fail(w, http.StatusServiceUnavailable, "%v", err)
	case submitQueueFull:
		s.mRejected.Inc()
		w.Header().Set("Retry-After", "5")
		fail(w, http.StatusTooManyRequests, "%v", err)
	case submitDeduped:
		s.mDeduped.Inc()
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// jobList is the GET /v1/jobs response envelope.
type jobList struct {
	// Jobs lists brief statuses in admission order.
	Jobs []JobStatus `json:"jobs"`
}

// handleList implements GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := jobList{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, s.snapshot(j, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGet implements GET /v1/jobs/{id}: the full status, tables
// included once computed (terminal jobs found in the persisted store
// are revived transparently).
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		fail(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.snapshot(j, true))
}

// handleCancel implements DELETE /v1/jobs/{id}. Cancelling a terminal
// job is a no-op that reports the final state; a queued job turns
// canceled immediately; a running job's sweep is drained (in-flight
// simulations finish and are stored) and turns canceled when its
// executor observes the drain.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.lookup(id) == nil {
		fail(w, http.StatusNotFound, "no such job")
		return
	}
	st, outcome := s.cancel(id)
	switch outcome {
	case cancelUnknown:
		fail(w, http.StatusNotFound, "no such job")
	case cancelRunning:
		writeJSON(w, http.StatusAccepted, st)
	default: // queued (now terminal) or already terminal
		writeJSON(w, http.StatusOK, st)
	}
}

// handleEvents implements GET /v1/jobs/{id}/events: the job's progress
// feed as NDJSON, one Event per line, streamed live until the job
// reaches a terminal state (the feed closes) or the client disconnects.
// ?from=N skips the first N events, so a reconnecting client resumes at
// its last seen sequence number + 1.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		fail(w, http.StatusNotFound, "no such job")
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			fail(w, http.StatusBadRequest, "invalid from=%q", v)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for {
		evs, closed := j.events.since(from)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		if ctx.Err() != nil {
			return
		}
		j.events.wait(ctx, from)
	}
}
