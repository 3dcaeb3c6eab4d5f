// Job model, admission queues and the executor pool. A job is one sweep
// request (figures + options) addressed by its content-derived identity
// (harness.Request.IdentityKey — the same SHA-256 construction as the
// result-store keys), which is what makes dedupe and instant replay
// safe: identical submissions share one job, and a completed job's
// tables are valid for every future identical submission. Admission is
// per client (FIFO, bounded — overflow is the HTTP 429 the handlers
// report) with round-robin fairness across clients; execution rides the
// harness library end to end, including its drain machinery for
// cancellation and graceful shutdown and its result store for resuming.
package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"zivsim/internal/harness"
	"zivsim/internal/telemetry"
)

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle states. queued and running are live; done, failed and
// canceled are terminal (a terminal job's tables, when present, never
// change).
const (
	// StateQueued marks a job admitted but not yet picked up.
	StateQueued JobState = "queued"
	// StateRunning marks a job an executor is sweeping.
	StateRunning JobState = "running"
	// StateDone marks a sweep that completed with every job succeeding.
	StateDone JobState = "done"
	// StateFailed marks a sweep that completed with failed jobs or a
	// panicked experiment (tables for the rest are still served).
	StateFailed JobState = "failed"
	// StateCanceled marks a job canceled by the client or drained by a
	// server shutdown before it could finish; resubmitting the same
	// payload re-runs it, adopting every simulation already in the
	// result store.
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// OptionsPayload is the wire form of the experiment options. Every
// field is optional; absent fields take the zivsim defaults (or the
// paper-fidelity values when paper is true). Fields that cannot affect
// simulation results are not part of the job identity.
type OptionsPayload struct {
	// Paper, when true, starts from the paper-fidelity option set
	// (scale 1, 36+36 mixes, full reference counts) instead of the
	// laptop-scale defaults; explicit fields still override.
	Paper *bool `json:"paper,omitempty"`
	// Scale divides every cache capacity (1 = the paper's full machine).
	Scale *int `json:"scale,omitempty"`
	// Cores is the CMP size for multi-programmed experiments.
	Cores *int `json:"cores,omitempty"`
	// HeteroMixes sets how many heterogeneous mixes run.
	HeteroMixes *int `json:"hetero_mixes,omitempty"`
	// HomoMixes sets how many homogeneous mixes run.
	HomoMixes *int `json:"homo_mixes,omitempty"`
	// Warmup is the per-core reference count simulated before measuring.
	Warmup *int `json:"warmup,omitempty"`
	// Measure is the per-core reference count of the measured segment.
	Measure *int `json:"measure,omitempty"`
	// TPCECores is the core count of the TPC-E scalability experiment.
	TPCECores *int `json:"tpce_cores,omitempty"`
	// Seed is the deterministic sweep seed.
	Seed *uint64 `json:"seed,omitempty"`
	// Parallelism bounds concurrent simulations inside the sweep; the
	// server additionally caps it at its own -parallel setting. Not part
	// of the job identity (it cannot affect results).
	Parallelism *int `json:"parallelism,omitempty"`
}

// Options materializes the payload over the defaults.
func (p OptionsPayload) Options() harness.Options {
	o := harness.DefaultOptions()
	if p.Paper != nil && *p.Paper {
		o = harness.PaperOptions()
	}
	if p.Scale != nil {
		o.Scale = *p.Scale
	}
	if p.Cores != nil {
		o.Cores = *p.Cores
	}
	if p.HeteroMixes != nil {
		o.HeteroMixes = *p.HeteroMixes
	}
	if p.HomoMixes != nil {
		o.HomoMixes = *p.HomoMixes
	}
	if p.Warmup != nil {
		o.Warmup = *p.Warmup
	}
	if p.Measure != nil {
		o.Measure = *p.Measure
	}
	if p.TPCECores != nil {
		o.TPCECores = *p.TPCECores
	}
	if p.Seed != nil {
		o.Seed = *p.Seed
	}
	if p.Parallelism != nil {
		o.Parallelism = *p.Parallelism
	}
	return o
}

// Submission is the POST /v1/jobs request body: which figures to sweep
// ("all", or any subset of experiment IDs) under which options.
type Submission struct {
	// Figs lists experiment IDs; empty or containing "all" selects every
	// experiment. The canonical (sorted, deduplicated) selection is part
	// of the job identity.
	Figs []string `json:"figs"`
	// Options is the experiment option set; absent fields take defaults.
	Options OptionsPayload `json:"options"`
}

// Job is one admitted sweep. Identity-bearing fields are immutable
// after construction; lifecycle state is guarded by mu.
type Job struct {
	// ID is the job's content-addressed identity (64 hex chars).
	ID string
	// Client is the submitting client's identity (X-Ziv-Client).
	Client string
	// Figs is the canonical experiment selection.
	Figs []string
	// SubmittedUS is the admission wall-clock time, µs since epoch.
	SubmittedUS int64

	opt    harness.Options // materialized result-affecting option set
	drain  *harness.Drain  // cancellation/shutdown lever for the sweep
	events *eventLog

	mu sync.Mutex
	//ziv:guards(mu)
	state JobState
	//ziv:guards(mu)
	startedUS int64
	//ziv:guards(mu)
	endedUS int64
	//ziv:guards(mu)
	figures []FigurePayload
	//ziv:guards(mu)
	status *harness.SweepStatus
	//ziv:guards(mu)
	errMsg string
	//ziv:guards(mu)
	cancelRequested bool
}

// FigurePayload is one experiment's result as served by the API. Text
// is the aligned-table rendering, byte-identical to what `zivsim -fig
// <id>` prints for the same options — the round-trip tests pin that.
type FigurePayload struct {
	// ID is the experiment identifier ("fig8").
	ID string `json:"id"`
	// Title is the experiment's human-readable title.
	Title string `json:"title"`
	// Table is the structured figure (columns, labeled rows, notes).
	Table *harness.Table `json:"table,omitempty"`
	// Text is the aligned-text rendering of Table.
	Text string `json:"text,omitempty"`
	// Err is the panic message of an experiment that aborted.
	Err string `json:"err,omitempty"`
}

// figurePayload renders one engine FigureResult for the wire.
func figurePayload(fr harness.FigureResult) FigurePayload {
	p := FigurePayload{ID: fr.ID, Title: fr.Title, Err: fr.Err}
	if fr.Table != nil {
		t := *fr.Table
		p.Table = &t
		p.Text = fr.Table.Format()
	}
	return p
}

// JobStatus is a job's wire representation (GET /v1/jobs/{id} and the
// submit/list responses).
type JobStatus struct {
	// ID is the job's content-addressed identity.
	ID string `json:"id"`
	// Client is the submitting client.
	Client string `json:"client"`
	// State is the lifecycle state.
	State JobState `json:"state"`
	// Figs is the canonical experiment selection.
	Figs []string `json:"figs"`
	// SubmittedUS/StartedUS/EndedUS are wall-clock µs since epoch (0 =
	// not yet reached).
	SubmittedUS int64 `json:"submitted_us"`
	// StartedUS is when an executor picked the job up.
	StartedUS int64 `json:"started_us,omitempty"`
	// EndedUS is when the job reached a terminal state.
	EndedUS int64 `json:"ended_us,omitempty"`
	// Deduped marks a submit response served by an existing job.
	Deduped bool `json:"deduped,omitempty"`
	// QueuePosition is the 1-based position in the client's queue at
	// admission (submit responses of fresh jobs only).
	QueuePosition int `json:"queue_position,omitempty"`
	// CancelRequested marks a running job whose cancellation is pending.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Events is the number of progress events recorded so far.
	Events int `json:"events"`
	// Figures holds the result tables (full status responses only).
	Figures []FigurePayload `json:"figures,omitempty"`
	// Status is the sweep's job-level outcome summary, once finished.
	Status *harness.SweepStatus `json:"status,omitempty"`
	// Error explains failed and canceled states.
	Error string `json:"error,omitempty"`
}

// snapshot renders a job for the wire; full includes tables and status.
func (s *Server) snapshot(j *Job, full bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Client: j.Client, State: j.state,
		Figs:        append([]string(nil), j.Figs...),
		SubmittedUS: j.SubmittedUS, StartedUS: j.startedUS, EndedUS: j.endedUS,
		CancelRequested: j.cancelRequested && !j.state.terminal(),
		Events:          j.events.len(),
		Error:           j.errMsg,
	}
	if full {
		st.Figures = append([]FigurePayload(nil), j.figures...)
		if j.status != nil {
			cp := *j.status
			st.Status = &cp
		}
	}
	return st
}

// submitOutcome classifies one submission for metrics and status codes.
type submitOutcome int

const (
	submitNew submitOutcome = iota
	submitDeduped
	submitQueueFull
	submitDraining
	submitBad
)

// submit admits (or dedupes) one submission. The returned JobStatus is
// valid whenever err is nil.
func (s *Server) submit(client string, sub Submission) (JobStatus, submitOutcome, error) {
	exps, err := harness.ResolveFigs(sub.Figs)
	if err != nil {
		return JobStatus{}, submitBad, err
	}
	opt := sub.Options.Options()
	if err := opt.Validate(); err != nil {
		return JobStatus{}, submitBad, fmt.Errorf("options: %w", err)
	}
	figIDs := make([]string, len(exps))
	for i, e := range exps {
		figIDs[i] = e.ID
	}
	if s.cfg.Parallelism > 0 && (opt.Parallelism == 0 || opt.Parallelism > s.cfg.Parallelism) {
		opt.Parallelism = s.cfg.Parallelism
	}
	id, err := harness.Request{Figs: figIDs, Options: opt}.IdentityKey()
	if err != nil {
		return JobStatus{}, submitBad, err
	}

	// Revive a persisted job before taking the lock: lookup reads the
	// disk only on an in-memory miss and installs what it finds, so the
	// critical section below dedupes against it like any other job.
	s.lookup(id)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, submitDraining, fmt.Errorf("server is draining; resubmit after restart")
	}
	if j := s.jobs[id]; j != nil {
		j.mu.Lock()
		replaceable := j.state == StateFailed || j.state == StateCanceled
		j.mu.Unlock()
		if !replaceable {
			st := s.snapshot(j, false)
			st.Deduped = true
			s.mu.Unlock()
			return st, submitDeduped, nil
		}
		// A failed or canceled job is re-admitted under the same
		// identity: fall through and replace it (the result store
		// makes the re-run a resume).
	}
	if s.pendingCount[client] >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return JobStatus{}, submitQueueFull,
			fmt.Errorf("client %q already has %d pending job(s) (limit %d)", client, s.cfg.QueueDepth, s.cfg.QueueDepth)
	}
	j := &Job{
		ID: id, Client: client, Figs: figIDs,
		SubmittedUS: s.nowUS(),
		opt:         opt,
		drain:       harness.NewDrain(),
		events:      newEventLog(),
		state:       StateQueued,
	}
	s.install(j)
	s.queues[client] = append(s.queues[client], j)
	if !s.inRing[client] {
		s.inRing[client] = true
		s.ring = append(s.ring, client)
	}
	s.pendingCount[client]++
	pos := len(s.queues[client])
	s.mu.Unlock()

	j.events.append(Event{WallUS: j.SubmittedUS, Record: telemetry.Record{Type: EventSubmitted}})
	s.mSubmitted.Inc()
	s.mPending.Add(1)
	s.notifyWork()
	st := s.snapshot(j, false)
	st.QueuePosition = pos
	return st, submitNew, nil
}

// install registers a job in the identity table and listing order,
// replacing any previous job under the same identity. Callers hold s.mu.
func (s *Server) install(j *Job) {
	if _, exists := s.jobs[j.ID]; !exists {
		s.order = append(s.order, j.ID)
	}
	s.jobs[j.ID] = j
}

// lookup resolves a job ID, falling back to the persisted-job store so
// results survive a server restart.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		return j
	}
	p := s.loadPersisted(id)
	if p == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil { // lost the race to a submitter
		return j
	}
	s.install(p)
	return p
}

// notifyWork wakes one idle executor without blocking.
func (s *Server) notifyWork() {
	select {
	case s.workAvail <- struct{}{}:
	default:
	}
}

// claim pops the next queued job, round-robin across clients so one
// chatty client cannot starve the rest; nil when the queues are empty
// or the server is draining.
func (s *Server) claim() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	for range s.ring {
		c := s.ring[s.rr%len(s.ring)]
		s.rr++
		q := s.queues[c]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		s.queues[c] = q[1:]
		s.runningJobs[j.ID] = j
		return j
	}
	return nil
}

// finish retires an executed job from the running set.
func (s *Server) finish(j *Job) {
	s.mu.Lock()
	delete(s.runningJobs, j.ID)
	s.pendingCount[j.Client]--
	s.mu.Unlock()
}

// settle moves j to a terminal state: it records the state, the end
// time, the sweep status (nil when no sweep ran) and the message,
// persists a done job, appends the terminal event, closes the feed and
// moves the job from the pending gauge to its terminal counter. Callers
// keep their own s.mu bookkeeping (pendingCount, runningJobs).
func (s *Server) settle(j *Job, state JobState, status *harness.SweepStatus, msg string) {
	j.mu.Lock()
	j.state = state
	j.endedUS = s.nowUS()
	j.status = status
	j.errMsg = msg
	j.mu.Unlock()
	if state == StateDone {
		s.persist(j)
	}
	j.events.append(Event{WallUS: s.nowUS(), Record: telemetry.Record{Type: string(state), Err: msg}, State: string(state)})
	j.events.closeLog()
	s.mPending.Add(-1)
	if c := s.mTerminal[state]; c != nil {
		c.Inc()
	}
}

// executor is one worker of the pool: it drains the queues, sleeping on
// workAvail between bursts, until stop closes.
func (s *Server) executor(stop <-chan struct{}) {
	for {
		j := s.claim()
		if j == nil {
			select {
			case <-stop:
				return
			case <-s.workAvail:
			}
			continue
		}
		s.execute(j)
	}
}

// execute runs one job's sweep through the harness library, wiring the
// server's result store, the shared metrics registry, and the job's
// event feed into it, then records the terminal state.
func (s *Server) execute(j *Job) {
	j.mu.Lock()
	canceled := j.cancelRequested
	if !canceled {
		j.state = StateRunning
		j.startedUS = s.nowUS()
	}
	j.mu.Unlock()
	if canceled {
		s.settle(j, StateCanceled, nil, "canceled before start")
		s.finish(j)
		return
	}
	j.events.append(Event{WallUS: s.nowUS(), Record: telemetry.Record{Type: EventStarted}})

	opt := j.opt
	opt.Drain = j.drain
	opt.CacheDir = s.cacheDir
	opt.Telemetry = telemetry.NewSink(s.cfg.Now, telemetry.Outputs{
		Registry: s.reg,
		Observer: func(rec telemetry.Record) { j.events.append(Event{WallUS: s.nowUS(), Record: rec}) },
	})

	rep, err := harness.RunSweep(harness.Request{
		Figs:    j.Figs,
		Options: opt,
		OnFigure: func(fr harness.FigureResult) {
			p := figurePayload(fr)
			j.mu.Lock()
			j.figures = append(j.figures, p)
			j.mu.Unlock()
			j.events.append(Event{WallUS: s.nowUS(), Record: telemetry.Record{Type: EventFigure, Err: fr.Err}, Fig: fr.ID})
		},
	})

	state, msg := StateDone, ""
	switch {
	case err != nil:
		state, msg = StateFailed, err.Error()
	case rep.Drained && j.canceled():
		state, msg = StateCanceled, "canceled by client"
	case rep.Drained:
		state, msg = StateCanceled, "server drained mid-sweep; resubmit to resume from the result store"
	case len(rep.Status.Failed) > 0 || rep.Panics() > 0:
		state, msg = StateFailed,
			fmt.Sprintf("%d simulation job(s) failed, %d experiment(s) panicked", len(rep.Status.Failed), rep.Panics())
	}
	var status *harness.SweepStatus
	if rep != nil {
		status = &rep.Status
	}
	s.settle(j, state, status, msg)
	s.finish(j)
}

// canceled reports whether the client requested cancellation.
func (j *Job) canceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// cancelOutcome classifies a cancellation request.
type cancelOutcome int

const (
	cancelUnknown  cancelOutcome = iota // no such job
	cancelQueued                        // removed from the queue, now terminal
	cancelRunning                       // drain requested, cancellation pending
	cancelTerminal                      // already finished; nothing to cancel
)

// cancel handles DELETE /v1/jobs/{id}: a queued job is removed and
// terminal immediately; a running job gets its sweep drained (dispatch
// stops, in-flight simulations finish and are stored) and turns
// canceled when the executor observes the drain.
func (s *Server) cancel(id string) (JobStatus, cancelOutcome) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobStatus{}, cancelUnknown
	}
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		s.mu.Unlock()
		return s.snapshot(j, false), cancelTerminal
	}
	j.cancelRequested = true
	j.mu.Unlock()
	if removed := s.dequeueLocked(j); removed {
		s.pendingCount[j.Client]--
		// Still under s.mu, so no submit sees the job between its
		// dequeue and its terminal state.
		s.settle(j, StateCanceled, nil, "canceled before start")
		s.mu.Unlock()
		return s.snapshot(j, false), cancelQueued
	}
	s.mu.Unlock()
	// Claimed by an executor: drain the sweep. The executor marks the
	// job canceled when RunSweep returns.
	j.drain.Request()
	return s.snapshot(j, false), cancelRunning
}

// dequeueLocked removes j from its client's queue, reporting whether it
// was still queued. Callers hold s.mu.
func (s *Server) dequeueLocked(j *Job) bool {
	q := s.queues[j.Client]
	for i, qj := range q {
		if qj == j {
			s.queues[j.Client] = append(q[:i:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// BeginDrain moves the server into its draining state: /healthz flips
// to 503, new submissions are rejected, every queued job is canceled,
// and every running sweep gets a drain request (dispatch stops,
// in-flight simulations finish and are stored in the result store).
// Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	var queued []*Job
	for _, c := range s.ring {
		for _, j := range s.queues[c] {
			queued = append(queued, j)
			s.pendingCount[c]--
		}
		s.queues[c] = nil
	}
	running := s.runningLocked()
	s.mu.Unlock()
	for _, j := range queued {
		s.settle(j, StateCanceled, nil, "server draining")
	}
	for _, j := range running {
		j.drain.Request()
	}
}

// AbandonInflight expires the drain of every running sweep: the harness
// worker pools stop waiting for in-flight simulations (they finish or
// die with the process) and the jobs turn canceled. cmd/zivsimd arms
// this on its -drain-deadline timer; the server records that the
// shutdown was not clean.
func (s *Server) AbandonInflight() {
	s.mu.Lock()
	s.abandoned = true
	running := s.runningLocked()
	s.mu.Unlock()
	for _, j := range running {
		j.drain.Expire()
	}
}

// runningLocked snapshots the running set in ID order (deterministic
// drain sequencing). Callers hold s.mu.
func (s *Server) runningLocked() []*Job {
	ids := make([]string, 0, len(s.runningJobs))
	for id := range s.runningJobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Job, len(ids))
	for i, id := range ids {
		out[i] = s.runningJobs[id]
	}
	return out
}

// Abandoned reports whether AbandonInflight fired (the drain deadline
// expired with sweeps still in flight); cmd/zivsimd maps it to exit
// code 4.
func (s *Server) Abandoned() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abandoned
}

// Run starts the executor pool and blocks until stop closes and every
// in-flight sweep has drained. It is the server's whole execution
// lifetime: cmd/zivsimd calls it once, with stop wired to
// SIGINT/SIGTERM, and shuts the HTTP listener only after it returns so
// status queries and /metrics scrapes keep answering during the drain.
func (s *Server) Run(stop <-chan struct{}) {
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.executor(stop)
		}()
	}
	<-stop
	s.BeginDrain()
	wg.Wait()
}

// persistedJob is the on-disk envelope of a completed job, stored under
// its identity in <state-dir>/jobs through the same harness/store code
// as the harness result store, so finished tables survive a restart and
// an identical resubmission is served instantly.
type persistedJob struct {
	// Version stamps the envelope; mismatches are treated as a miss.
	Version string `json:"version"`
	// Job is the full terminal status, tables included.
	Job JobStatus `json:"job"`
}

// persistVersion stamps persisted job files.
const persistVersion = "zivsimd-job-v1"

// persist stores a completed job's full status in the job records.
// Failures are silent by design: persistence is an accelerator, never a
// correctness dependency.
func (s *Server) persist(j *Job) {
	if s.records == "" {
		return
	}
	data, err := json.Marshal(persistedJob{Version: persistVersion, Job: s.snapshot(j, true)})
	if err != nil {
		return
	}
	_ = s.records.Put(j.ID, data)
}

// loadPersisted rebuilds a done Job from the job records; nil when
// absent, unreadable, version-mismatched or not a valid identity (a
// miss, never an error).
func (s *Server) loadPersisted(id string) *Job {
	data, ok := s.records.Get(id)
	if !ok {
		return nil
	}
	var p persistedJob
	if err := json.Unmarshal(data, &p); err != nil || p.Version != persistVersion || p.Job.ID != id {
		return nil
	}
	j := &Job{
		ID: p.Job.ID, Client: p.Job.Client, Figs: p.Job.Figs,
		SubmittedUS: p.Job.SubmittedUS,
		drain:       harness.NewDrain(),
		events:      newEventLog(),
		state:       StateDone,
		startedUS:   p.Job.StartedUS,
		endedUS:     p.Job.EndedUS,
		figures:     p.Job.Figures,
		status:      p.Job.Status,
	}
	j.events.append(Event{WallUS: p.Job.EndedUS, Record: telemetry.Record{Type: string(StateDone)}, State: string(StateDone)})
	j.events.closeLog()
	return j
}
