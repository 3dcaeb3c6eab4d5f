// Per-job progress feeds. Every job owns an append-only event log: the
// submission, sweep start, one event per simulation-lifecycle step
// (mirrored from the telemetry sink's observer), one per finished
// figure, and a terminal event. GET /v1/jobs/{id}/events streams the
// log as NDJSON; streamers that catch up block on a broadcast channel
// that the appender closes-and-replaces, so delivery needs no
// per-subscriber goroutines (the join shape goleak proves is "none").
package server

import (
	"context"
	"sync"

	"zivsim/internal/telemetry"
)

// Event is one entry in a job's progress feed, streamed as one NDJSON
// line by GET /v1/jobs/{id}/events. Seq is dense per job, so a client
// that reconnects resumes with ?from=<next seq>.
type Event struct {
	// Seq is the event's 0-based position in the job's feed.
	Seq int `json:"seq"`
	// WallUS is the server wall-clock time of the event, µs since epoch.
	WallUS int64 `json:"wall_us"`
	// Record carries the event's type — submitted, started, figure,
	// done, failed, canceled, or a simulation-lifecycle step (sim-queued,
	// sim-attempt-start, sim-attempt-end, sim-adopted, sim-skipped) — and
	// err when the event has a message. A sim-* event is the telemetry
	// sink's record verbatim, so its line is a run-ledger line plus seq
	// and wall_us. The record's fields are flattened into the line.
	telemetry.Record
	// Fig is the experiment ID, on figure events.
	Fig string `json:"fig,omitempty"`
	// State is the job's final state, on terminal events.
	State string `json:"state,omitempty"`
}

// Job-level event types (the sim-* types are telemetry's Sim*
// constants).
const (
	// EventSubmitted is the feed's first event, appended at admission.
	EventSubmitted = "submitted"
	// EventStarted marks an executor picking the job up.
	EventStarted = "started"
	// EventFigure marks one experiment of the sweep completing.
	EventFigure = "figure"
)

// eventLog is one job's append-only feed plus the broadcast machinery
// for streamers. The zero value is not usable; construct with
// newEventLog.
type eventLog struct {
	mu sync.Mutex
	//ziv:guards(mu)
	events []Event
	//ziv:guards(mu)
	closed bool
	// update is closed and replaced on every append (and on close), so
	// any number of streamers can wait for growth without goroutines.
	//ziv:guards(mu)
	update chan struct{}
}

// newEventLog returns an empty, open feed.
func newEventLog() *eventLog {
	return &eventLog{update: make(chan struct{})}
}

// append stamps ev's sequence number and adds it to the feed, waking
// every waiting streamer. Appends to a closed feed are dropped.
func (l *eventLog) append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	close(l.update)
	l.update = make(chan struct{})
}

// closeLog marks the feed complete (the job reached a terminal state)
// and wakes every waiting streamer so it can drain and disconnect.
func (l *eventLog) closeLog() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.update)
	l.update = make(chan struct{})
}

// len returns the number of events in the feed.
func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// since returns a copy of the events at positions >= from (clamped to
// the feed) and whether the feed has been closed.
func (l *eventLog) since(from int) ([]Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(l.events) {
		from = len(l.events)
	}
	return append([]Event(nil), l.events[from:]...), l.closed
}

// wait blocks until the feed grows past n events, reporting true, or
// until the feed closes without growing or ctx is done, reporting
// false. It is the streamers' only blocking point and always selects on
// ctx.Done, so a disconnected client releases its handler promptly.
func (l *eventLog) wait(ctx context.Context, n int) bool {
	for {
		l.mu.Lock()
		if len(l.events) > n {
			l.mu.Unlock()
			return true
		}
		if l.closed {
			l.mu.Unlock()
			return false
		}
		ch := l.update
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return false
		case <-ch:
		}
	}
}
