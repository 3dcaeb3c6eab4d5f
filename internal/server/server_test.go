package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"zivsim/internal/harness"
	"zivsim/internal/telemetry"
)

// fakeClock is an injected, strictly monotonic wall clock so job and
// event timestamps are deterministic and no test output depends on the
// real wall clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0).UTC()}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

// tinyPayload is the options every test submits: small enough that a
// full fig8 sweep takes well under a second.
func tinyPayload() OptionsPayload {
	i := func(v int) *int { return &v }
	return OptionsPayload{
		Scale: i(64), HeteroMixes: i(1), HomoMixes: i(1),
		Warmup: i(500), Measure: i(2000), TPCECores: i(8),
	}
}

// newTestServer builds a server on a temp state dir with no executors
// running (jobs stay queued) and registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = newFakeClock().Now
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// startExecutors runs the executor pool for the test's duration,
// joining it at cleanup so no goroutine outlives the test.
func startExecutors(t *testing.T, s *Server) {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		s.Run(stop)
		close(done)
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
}

// post submits sub and decodes the response body into a JobStatus.
func post(t *testing.T, ts *httptest.Server, sub Submission) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp.StatusCode
}

// getJob fetches the full status of one job.
func getJob(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return st, resp.StatusCode
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, code := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// TestRoundTripMatchesDirectRun is the API's core contract: the tables
// a submitted job serves are byte-identical to what a direct harness
// run (and therefore the zivsim CLI) produces for the same options —
// both when computed by the server and when served instantly from the
// persisted store and the disk cache by later servers.
func TestRoundTripMatchesDirectRun(t *testing.T) {
	payload := tinyPayload()
	figs := []string{"fig8"}

	// Baseline: the engine directly, as cmd/zivsim drives it.
	rep, err := harness.RunSweep(harness.Request{Figs: figs, Options: payload.Options()})
	if err != nil {
		t.Fatalf("direct RunSweep: %v", err)
	}
	want := rep.Figures[0].Table.Format()

	// Server computes from scratch, persisting as it goes.
	stateDir := t.TempDir()
	s := newTestServer(t, Config{StateDir: stateDir})
	startExecutors(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, code := post(t, ts, Submission{Figs: figs, Options: payload})
	if code != http.StatusAccepted || st.Deduped {
		t.Fatalf("fresh submit = %d (deduped %v), want 202", code, st.Deduped)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", fin.State, fin.Error)
	}
	if len(fin.Figures) != 1 || fin.Figures[0].ID != "fig8" {
		t.Fatalf("figures = %+v", fin.Figures)
	}
	if fin.Figures[0].Text != want {
		t.Fatalf("served table differs from the direct run:\n--- direct ---\n%s--- served ---\n%s", want, fin.Figures[0].Text)
	}
	if fin.Status == nil || fin.Status.Completed == 0 {
		t.Fatalf("sweep status missing: %+v", fin.Status)
	}

	// Same submission again: answered by the same job, same bytes.
	st2, code2 := post(t, ts, Submission{Figs: figs, Options: payload})
	if code2 != http.StatusOK || !st2.Deduped || st2.ID != st.ID {
		t.Fatalf("resubmit = %d deduped=%v id=%s, want 200/true/%s", code2, st2.Deduped, st2.ID, st.ID)
	}

	// A fresh server over the same state dir serves the persisted job
	// instantly — no executors are even running.
	s2 := newTestServer(t, Config{StateDir: stateDir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st3, code3 := post(t, ts2, Submission{Figs: figs, Options: payload})
	if code3 != http.StatusOK || !st3.Deduped {
		t.Fatalf("post-restart submit = %d deduped=%v, want instant dedupe", code3, st3.Deduped)
	}
	got3, _ := getJob(t, ts2, st.ID)
	if got3.State != StateDone || len(got3.Figures) != 1 || got3.Figures[0].Text != want {
		t.Fatalf("persisted job differs after restart (state %s)", got3.State)
	}

	// With the persisted job record gone but the result store intact, a
	// third server recomputes entirely from cache hits — same bytes.
	if err := removeJobRecord(stateDir, st.ID); err != nil {
		t.Fatalf("remove job record: %v", err)
	}
	s3 := newTestServer(t, Config{StateDir: stateDir})
	startExecutors(t, s3)
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	st4, code4 := post(t, ts3, Submission{Figs: figs, Options: payload})
	if code4 != http.StatusAccepted {
		t.Fatalf("post-wipe submit = %d, want 202", code4)
	}
	fin4 := waitTerminal(t, ts3, st4.ID)
	if fin4.State != StateDone || fin4.Figures[0].Text != want {
		t.Fatalf("cache-backed rerun differs (state %s)", fin4.State)
	}
	// Every simulation must be adopted from the shared result store,
	// not recomputed.
	if fin4.Status.CacheHits != fin4.Status.Completed {
		t.Fatalf("cache-backed rerun recomputed work: %+v", fin4.Status)
	}
}

// TestJobStatusCountsOwnSweep: a job's status covers its own sweep
// only. On one server without a state dir, a fig2 job run after a fig1
// job under the same options must report what a fresh server's fig2 job
// does: fig2's nine configurations on two mixes, none of fig1's jobs.
func TestJobStatusCountsOwnSweep(t *testing.T) {
	s := newTestServer(t, Config{})
	startExecutors(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var fin JobStatus
	for _, fig := range []string{"fig1", "fig2"} {
		st, code := post(t, ts, Submission{Figs: []string{fig}, Options: tinyPayload()})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d, want 202", fig, code)
		}
		if fin = waitTerminal(t, ts, st.ID); fin.State != StateDone {
			t.Fatalf("%s job state = %s (%s), want done", fig, fin.State, fin.Error)
		}
	}
	if fin.Status == nil || fin.Status.Completed != 18 {
		t.Fatalf("fig2 job status = %+v, want 18 completed", fin.Status)
	}
}

// removeJobRecord deletes one persisted job record, leaving the result
// store intact.
func removeJobRecord(stateDir, id string) error {
	return os.Remove(filepath.Join(stateDir, "jobs", id+".json"))
}

// TestEventsStream checks the NDJSON feed: a completed job's stream is
// the full dense-sequence history ending in a terminal event, and
// ?from= resumes mid-feed.
func TestEventsStream(t *testing.T) {
	s := newTestServer(t, Config{})
	startExecutors(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := post(t, ts, Submission{Figs: []string{"fig8"}, Options: tinyPayload()})

	// Stream live: the request stays open until the job finishes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q", ct)
	}
	var events []Event
	var attemptEnd []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev.Type == telemetry.SimAttemptEnd && attemptEnd == nil {
			attemptEnd = append([]byte(nil), sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: sequence not dense", i, ev.Seq)
		}
	}
	if events[0].Type != EventSubmitted || events[1].Type != EventStarted {
		t.Fatalf("feed head = %s, %s", events[0].Type, events[1].Type)
	}
	last := events[len(events)-1]
	if last.Type != string(StateDone) || last.State != string(StateDone) {
		t.Fatalf("feed tail = %+v, want terminal done", last)
	}
	sawFigure, sawSim := false, false
	for _, ev := range events {
		sawFigure = sawFigure || ev.Type == EventFigure
		sawSim = sawSim || strings.HasPrefix(ev.Type, "sim-")
	}
	if !sawFigure || !sawSim {
		t.Fatalf("feed missing figure (%v) or sim (%v) events", sawFigure, sawSim)
	}
	// A sim-* line is a telemetry record: it decodes as one, carrying
	// the job's identity and the attempt's timing.
	var rec telemetry.Record
	if err := json.Unmarshal(attemptEnd, &rec); err != nil {
		t.Fatalf("sim-attempt-end line %q: %v", attemptEnd, err)
	}
	if rec.Key == "" || rec.Cfg == "" || rec.Mix == "" || rec.DurUS <= 0 || rec.Refs == 0 {
		t.Fatalf("sim-attempt-end record missing key/cfg/mix/duration/refs: %s", attemptEnd)
	}

	// Resume from the tail: only the last event comes back.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, st.ID, len(events)-1))
	if err != nil {
		t.Fatalf("GET events?from: %v", err)
	}
	defer resp2.Body.Close()
	tail, _ := readAllEvents(t, resp2)
	if len(tail) != 1 || tail[0].Seq != len(events)-1 {
		t.Fatalf("from=%d returned %d events (first seq %d)", len(events)-1, len(tail), tail[0].Seq)
	}
}

// readAllEvents drains an NDJSON response body.
func readAllEvents(t *testing.T, resp *http.Response) ([]Event, error) {
	t.Helper()
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// TestCancelMidRun submits a deliberately slow serial sweep, cancels it
// once it is running, and expects a canceled terminal state long before
// the sweep could have finished, with the skipped work recorded.
func TestCancelMidRun(t *testing.T) {
	s := newTestServer(t, Config{Parallelism: 1})
	startExecutors(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := tinyPayload()
	measure := 300000
	slow.Measure = &measure
	st, code := post(t, ts, Submission{Figs: []string{"fig8"}, Options: slow})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	// Wait until the sweep is demonstrably running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := getJob(t, ts, st.ID)
		if got.State == StateRunning && got.Events >= 3 {
			break
		}
		if got.State.terminal() {
			t.Fatalf("job finished before it could be canceled (state %s)", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running job = %d, want 202", resp.StatusCode)
	}

	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("state after cancel = %s (%s), want canceled", fin.State, fin.Error)
	}
	if fin.Status == nil || len(fin.Status.Skipped) == 0 {
		t.Fatalf("canceled sweep recorded no skipped jobs: %+v", fin.Status)
	}

	// Cancel is idempotent on a terminal job.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("DELETE again: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cancel terminal job = %d, want 200", resp2.StatusCode)
	}
}

// TestCancelQueued cancels a job no executor will ever claim and
// expects immediate terminality.
func TestCancelQueued(t *testing.T) {
	s := newTestServer(t, Config{}) // no executors
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := post(t, ts, Submission{Figs: []string{"fig8"}, Options: tinyPayload()})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued = %d, want 200", resp.StatusCode)
	}
	got, _ := getJob(t, ts, st.ID)
	if got.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", got.State)
	}

	// The slot is free again: resubmitting re-admits under the same ID.
	st2, code := post(t, ts, Submission{Figs: []string{"fig8"}, Options: tinyPayload()})
	if code != http.StatusAccepted || st2.ID != st.ID || st2.Deduped {
		t.Fatalf("resubmit after cancel = %d id=%s deduped=%v", code, st2.ID, st2.Deduped)
	}
}

// TestDrainWithInflight begins a server drain while a slow sweep is
// running: the sweep must come back canceled with a resumable message,
// /healthz must flip to 503, and new submissions must be refused.
func TestDrainWithInflight(t *testing.T) {
	s := newTestServer(t, Config{Parallelism: 1, StateDir: t.TempDir()})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		s.Run(stop)
		close(done)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := tinyPayload()
	measure := 300000
	slow.Measure = &measure
	st, _ := post(t, ts, Submission{Figs: []string{"fig8"}, Options: slow})
	queued, _ := post(t, ts, Submission{Figs: []string{"fig9"}, Options: slow})

	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := getJob(t, ts, st.ID)
		if got.State == StateRunning && got.Events >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(stop) // SIGTERM path: drain and wait for the executors
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Run did not return after drain")
	}

	fin, _ := getJob(t, ts, st.ID)
	if fin.State != StateCanceled || !strings.Contains(fin.Error, "drained") {
		t.Fatalf("in-flight job after drain: state %s, error %q", fin.State, fin.Error)
	}
	q, _ := getJob(t, ts, queued.ID)
	if q.State != StateCanceled {
		t.Fatalf("queued job after drain: state %s", q.State)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during drain = %d, want 503", resp.StatusCode)
	}
	if _, code := post(t, ts, Submission{Figs: []string{"fig8"}, Options: tinyPayload()}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	if s.Abandoned() {
		t.Fatal("clean drain reported as abandoned")
	}
}

// TestAdmissionControl fills one client's queue and expects 429, while
// a second client still gets in (the bound is per client).
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1}) // no executors: jobs stay queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, code := post(t, ts, Submission{Figs: []string{"fig8"}, Options: tinyPayload()}); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	// Same identity: dedupe, not a queue rejection.
	if _, code := post(t, ts, Submission{Figs: []string{"fig8"}, Options: tinyPayload()}); code != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", code)
	}
	// New identity, same client, full queue: 429.
	body, _ := json.Marshal(Submission{Figs: []string{"fig9"}, Options: tinyPayload()})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another client has its own queue.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Ziv-Client", "other")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST as other: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("other client's submit = %d, want 202", resp2.StatusCode)
	}
}

// TestBadRequests pins the 4xx surface: malformed JSON, unknown fields,
// invalid options, unknown figures, missing jobs, bad event cursors.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{`},
		{"unknown field", `{"figz":["fig8"]}`},
		{"unknown fig", `{"figs":["fig99"]}`},
		{"bad option", `{"figs":["fig8"],"options":{"scale":0}}`},
		{"scale 3", `{"figs":["fig8"],"options":{"scale":3}}`},
		{"cores 6", `{"figs":["fig8"],"options":{"cores":6}}`},
		{"tpce_cores 12", `{"figs":["fig8"],"options":{"tpce_cores":12}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("%s: error envelope missing (%v)", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	missing := strings.Repeat("ab", 32)
	if _, code := getJob(t, ts, missing); code != http.StatusNotFound {
		t.Fatalf("GET missing job = %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + missing + "/events")
	if err != nil {
		t.Fatalf("GET missing events: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing events = %d, want 404", resp.StatusCode)
	}

	st, _ := post(t, ts, Submission{Figs: []string{"fig8"}, Options: tinyPayload()})
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?from=x")
	if err != nil {
		t.Fatalf("GET events?from=x: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from = %d, want 400", resp2.StatusCode)
	}
}

// TestListOrder checks GET /v1/jobs lists jobs in admission order.
func TestListOrder(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, _ := post(t, ts, Submission{Figs: []string{"fig8"}, Options: tinyPayload()})
	b, _ := post(t, ts, Submission{Figs: []string{"fig9"}, Options: tinyPayload()})

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Fatalf("list order = %+v", list.Jobs)
	}
	if len(list.Jobs[0].Figures) != 0 {
		t.Fatal("brief listing carried full figure payloads")
	}
}
