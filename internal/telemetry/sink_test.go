package telemetry

import (
	"testing"
	"time"
)

// testClock is a deterministic strictly-increasing clock.
func testClock() func() time.Time {
	t := time.Unix(1700000000, 0).UTC()
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// TestSinkObserverMirrorsLifecycle drives every lifecycle method once
// and checks the observer sees the same steps, in order, with the
// fields zivsimd's event feed depends on.
func TestSinkObserverMirrorsLifecycle(t *testing.T) {
	s := NewSink(testClock(), NewRegistry(), nil, nil)
	var got []Event
	s.SetObserver(func(ev Event) { got = append(got, ev) })

	s.JobQueued("cfg|mix")
	s.AttemptStart("cfg|mix", 1)
	s.AttemptEnd("cfg|mix", "key1", "cfg", "mix", 1, OutcomeRetry, 0, "boom")
	s.AttemptStart("cfg|mix", 2)
	s.AttemptEnd("cfg|mix", "key1", "cfg", "mix", 2, OutcomeDone, 1234, "")
	s.JobAdopted("cfg|mix2", "key2", "cfg", "mix2")
	s.JobSkipped("cfg|mix3", "key3", "cfg", "mix3")

	wantTypes := []string{
		EventQueued, EventAttemptStart, EventAttemptEnd,
		EventAttemptStart, EventAttemptEnd,
		EventAdopted, EventSkipped,
	}
	if len(got) != len(wantTypes) {
		t.Fatalf("observed %d events, want %d", len(got), len(wantTypes))
	}
	for i, ev := range got {
		if ev.Type != wantTypes[i] {
			t.Fatalf("event %d type = %s, want %s", i, ev.Type, wantTypes[i])
		}
	}
	retry := got[2]
	if retry.Track != "cfg|mix" || retry.Key != "key1" || retry.Attempt != 1 ||
		retry.Outcome != OutcomeRetry || retry.Err != "boom" {
		t.Fatalf("retry event fields: %+v", retry)
	}
	done := got[4]
	if done.Attempt != 2 || done.Outcome != OutcomeDone || done.Refs != 1234 || done.Err != "" {
		t.Fatalf("done event fields: %+v", done)
	}
	adopted := got[5]
	if adopted.Track != "cfg|mix2" || adopted.Outcome != OutcomeCacheHit || adopted.Mix != "mix2" {
		t.Fatalf("adopted event fields: %+v", adopted)
	}
	skipped := got[6]
	if skipped.Outcome != OutcomeSkipped || skipped.Key != "key3" {
		t.Fatalf("skipped event fields: %+v", skipped)
	}

	// Detach: further lifecycle calls are no longer mirrored.
	s.SetObserver(nil)
	s.JobQueued("cfg|mix4")
	if len(got) != len(wantTypes) {
		t.Fatal("detached observer still received events")
	}
}

// TestSinkObserverNilReceivers pins the nil-safety contract: a nil sink
// accepts SetObserver and every lifecycle call without panicking.
func TestSinkObserverNilReceivers(t *testing.T) {
	var s *Sink
	s.SetObserver(func(Event) { t.Fatal("observer on a nil sink fired") })
	s.JobQueued("x")
	s.AttemptStart("x", 1)
	s.AttemptEnd("x", "", "", "", 1, OutcomeDone, 0, "")
	s.JobAdopted("x", "", "", "")
	s.JobSkipped("x", "", "", "")
}
