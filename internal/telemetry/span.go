// Per-job lifecycle spans. The harness runner reports state transitions
// (queued → running → retry → done/failed/cache-hit/skipped) to a
// SpanRecorder; WriteSweepTrace renders the recording through the obs
// trace_event writer so a whole sweep loads as one Perfetto timeline, one
// track per job, alongside the cycle-domain traces obs itself exports.
package telemetry

import (
	"io"
	"sort"
	"sync"
	"time"

	"zivsim/internal/obs"
)

// openSpan is a phase that has begun on a track and not yet ended.
type openSpan struct {
	name    string
	startUS uint64
}

// SpanRecorder accumulates lifecycle spans in the wall-clock domain.
// The clock is injected, so tests drive it deterministically; the epoch
// is the first event's timestamp, making every exported time relative
// to sweep start. Safe for concurrent use by the runner's worker pool.
type SpanRecorder struct {
	now func() time.Time

	mu sync.Mutex
	//ziv:guards(mu)
	epoch time.Time
	//ziv:guards(mu)
	epochSet bool
	//ziv:guards(mu)
	open map[string]openSpan
	//ziv:guards(mu)
	spans []obs.TimelineSpan
}

// NewSpanRecorder builds a recorder reading wall-clock time from now
// (pass time.Now from package main; tests pass a fake).
func NewSpanRecorder(now func() time.Time) *SpanRecorder {
	return &SpanRecorder{now: now, open: make(map[string]openSpan)}
}

// stampLocked converts the current injected-clock reading to
// microseconds since the epoch, establishing the epoch on first use.
// Callers hold r.mu.
func (r *SpanRecorder) stampLocked() uint64 {
	t := r.now()
	if !r.epochSet {
		r.epoch, r.epochSet = t, true
	}
	d := t.Sub(r.epoch)
	if d < 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}

// Begin opens the named phase on a track, ending any phase still open
// there (phases on one track never overlap — a job is in one state at
// a time).
func (r *SpanRecorder) Begin(track, phase string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.stampLocked()
	r.endLocked(track, ts, nil)
	r.open[track] = openSpan{name: phase, startUS: ts}
}

// End closes the track's open phase, attaching args (nil for none) to
// the finished span. Ending a track with no open phase is a no-op.
func (r *SpanRecorder) End(track string, args map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(track, r.stampLocked(), args)
}

// endLocked closes track's open phase at endUS. Callers hold r.mu.
func (r *SpanRecorder) endLocked(track string, endUS uint64, args map[string]any) {
	o, ok := r.open[track]
	if !ok {
		return
	}
	delete(r.open, track)
	dur := uint64(0)
	if endUS > o.startUS {
		dur = endUS - o.startUS
	}
	r.spans = append(r.spans, obs.TimelineSpan{
		Track: track, Name: o.name, StartUS: o.startUS, DurUS: dur, Args: args})
}

// snapshot copies the recording, closing still-open phases at the
// current clock reading (marked "open" so an abandoned in-flight job is
// visible in the timeline) without mutating recorder state.
func (r *SpanRecorder) snapshot() []obs.TimelineSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.stampLocked()
	spans := append([]obs.TimelineSpan(nil), r.spans...)
	tracks := make([]string, 0, len(r.open))
	for track := range r.open {
		tracks = append(tracks, track)
	}
	sort.Strings(tracks)
	for _, track := range tracks {
		o := r.open[track]
		dur := uint64(0)
		if ts > o.startUS {
			dur = ts - o.startUS
		}
		spans = append(spans, obs.TimelineSpan{
			Track: track, Name: o.name, StartUS: o.startUS, DurUS: dur,
			Args: map[string]any{"outcome": "open"}})
	}
	return spans
}

// WriteSweepTrace renders the recorder's spans as Chrome trace_event
// JSON via the obs timeline writer; label names the sweep in the trace
// metadata. Still-open phases are emitted as spans ending now, flagged
// outcome=open.
func (r *SpanRecorder) WriteSweepTrace(w io.Writer, label string) error {
	return obs.WriteTimeline(w, label, r.snapshot())
}
