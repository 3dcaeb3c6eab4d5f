package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"zivsim/internal/telemetry"
)

// The resilience suite proves the recovery guarantees end to end: a
// single panicking job fails that job only; an interrupted-then-resumed
// sweep (via deterministic fault injection standing in for SIGINT),
// rerun over the same result store, produces byte-identical figure
// tables to an uninterrupted run; and a damaged or unusable store never
// changes a result.

// faultedJob is the one fig1 job every fault in this file targets. Fault
// substrings match any key containing them, so the NI- label is used: it
// is not a substring of any other fig1 key (unlike "I-LRU-256KB", which
// "NI-LRU-256KB|..." also contains).
const faultedJob = "NI-LRU-256KB|hetero.00"

// resilienceOptions returns fast, serial options. Parallelism 1 makes the
// dispatch order — and therefore drain-after interruption points —
// deterministic.
func resilienceOptions() Options {
	o := smallOptions()
	o.Parallelism = 1
	return o
}

// figTable runs experiment id alone as one sweep under o and returns
// its rendered table ("" when a drain cut it short) and the sweep's
// status.
func figTable(t *testing.T, id string, o Options) (string, SweepStatus) {
	t.Helper()
	tab, st := runFig(t, id, o)
	if tab == nil {
		return "", st
	}
	return tab.Format(), st
}

// cleanRuns memoizes one uninterrupted run per experiment — the
// byte-identity reference the resilience tests compare against.
var cleanRuns struct {
	sync.Mutex
	tables map[string]string
	jobs   map[string]int
}

func cleanRun(t *testing.T, id string) (table string, jobs int) {
	t.Helper()
	cleanRuns.Lock()
	defer cleanRuns.Unlock()
	if cleanRuns.tables == nil {
		cleanRuns.tables, cleanRuns.jobs = map[string]string{}, map[string]int{}
	}
	if _, ok := cleanRuns.tables[id]; !ok {
		tab, st := figTable(t, id, resilienceOptions())
		cleanRuns.tables[id], cleanRuns.jobs[id] = tab, st.Completed
	}
	if cleanRuns.jobs[id] == 0 {
		t.Fatalf("clean %s run completed no jobs", id)
	}
	return cleanRuns.tables[id], cleanRuns.jobs[id]
}

// TestPanicFailsOnlyThatJob: a panic inside one simulation must be
// recovered, recorded as a FailedJob with its stack, and leave every
// other job's result intact.
func TestPanicFailsOnlyThatJob(t *testing.T) {
	_, total := cleanRun(t, "fig1")

	o := resilienceOptions()
	o.FaultSpec = "panic:" + faultedJob
	_, st := figTable(t, "fig1", o) // must not panic: the failed cell renders as zeros

	if len(st.Failed) != 1 {
		t.Fatalf("got %d failed jobs, want exactly 1: %v", len(st.Failed), st.Failed)
	}
	fj := st.Failed[0]
	if fj.CfgLabel != "NI-LRU-256KB" || fj.Mix != "hetero.00" {
		t.Errorf("failed job is %s on %s, want the faulted job", fj.CfgLabel, fj.Mix)
	}
	if !strings.Contains(fj.Err, "injected panic") {
		t.Errorf("Err = %q, want the recovered panic value", fj.Err)
	}
	if !strings.Contains(fj.Stack, "attemptJob") {
		t.Errorf("Stack does not show the failing attempt:\n%s", fj.Stack)
	}
	if st.Completed != total-1 {
		t.Errorf("Completed = %d, want %d (every job but the panicking one)", st.Completed, total-1)
	}
	if len(st.Skipped) != 0 {
		t.Errorf("Skipped = %v, want none (no drain was requested)", st.Skipped)
	}
}

// TestDrainResumeByteIdentical: interrupt a sweep that stores its
// results with the drain-after fault (the deterministic stand-in for
// SIGINT), then rerun it over the same store in a fresh runner — the
// resumed figure must be byte-identical to an uninterrupted run, with
// the finished jobs adopted from the store. It runs a multi-programmed
// and a multi-threaded figure.
func TestDrainResumeByteIdentical(t *testing.T) {
	for _, id := range []string{"fig1", "fig17"} {
		t.Run(id, func(t *testing.T) {
			clean, total := cleanRun(t, id)
			dir := t.TempDir()

			o := resilienceOptions()
			o.CacheDir = dir
			o.FaultSpec = "drain-after:3"
			o.Drain = NewDrain()
			_, st := figTable(t, id, o) // partial: the drain parks the rest of the matrix

			if !o.Drain.Requested() {
				t.Fatal("drain-after fault did not request a drain")
			}
			if st.Completed != 3 {
				t.Fatalf("interrupted run completed %d jobs, want 3 (Parallelism 1)", st.Completed)
			}
			if len(st.Skipped) != total-3 {
				t.Fatalf("interrupted run skipped %d jobs, want %d", len(st.Skipped), total-3)
			}

			r := resilienceOptions()
			r.CacheDir = dir
			got, rst := figTable(t, id, r)

			if got != clean {
				t.Errorf("resumed run differs from uninterrupted run:\nclean:\n%s\nresumed:\n%s", clean, got)
			}
			if rst.CacheHits != 3 {
				t.Errorf("CacheHits = %d, want 3 (the jobs finished before the drain)", rst.CacheHits)
			}
			if rst.Completed != total || len(rst.Skipped) != 0 || len(rst.Failed) != 0 {
				t.Errorf("resumed status = %d completed, %d skipped, %d failed; want %d/0/0",
					rst.Completed, len(rst.Skipped), len(rst.Failed), total)
			}
		})
	}
}

// TestResumeRetriesFailedJob: a failed job is never stored, so a rerun
// over the same store re-attempts exactly it — and only it — then
// matches the clean run byte for byte.
func TestResumeRetriesFailedJob(t *testing.T) {
	clean, total := cleanRun(t, "fig1")
	dir := t.TempDir()

	o := resilienceOptions()
	o.CacheDir = dir
	o.FaultSpec = "panic:" + faultedJob
	if _, st := figTable(t, "fig1", o); len(st.Failed) != 1 || st.Completed != total-1 {
		t.Fatalf("faulted run: %d completed, %d failed; want %d completed, 1 failed",
			st.Completed, len(st.Failed), total-1)
	}

	r := resilienceOptions()
	r.CacheDir = dir
	refsBefore := SimulatedRefs()
	got, rst := figTable(t, "fig1", r)

	if got != clean {
		t.Errorf("resumed run differs from clean run:\nclean:\n%s\nresumed:\n%s", clean, got)
	}
	// Exactly one real simulation: the formerly failed job.
	oneJob := uint64(r.Cores) * uint64(r.Warmup+r.Measure)
	if simulated := SimulatedRefs() - refsBefore; simulated != oneJob {
		t.Errorf("resume simulated %d refs, want %d (one job)", simulated, oneJob)
	}
	if rst.CacheHits != total-1 || len(rst.Failed) != 0 {
		t.Errorf("resumed status: %d cache hits, %d failed; want %d hits, 0 failed",
			rst.CacheHits, len(rst.Failed), total-1)
	}
}

// TestCorruptCacheEntryRecomputed: a disk-cache entry torn after being
// stored (the corrupt: fault) must read as a miss on the next run, and
// the recompute must restore byte-identical output.
func TestCorruptCacheEntryRecomputed(t *testing.T) {
	clean, total := cleanRun(t, "fig1")

	o := resilienceOptions()
	o.CacheDir = t.TempDir()
	o.FaultSpec = "corrupt:" + faultedJob
	if got, _ := figTable(t, "fig1", o); got != clean {
		t.Errorf("corruption happens after the result is recorded; table must match clean run:\n%s", got)
	}

	r := o
	r.FaultSpec = ""
	refsBefore := SimulatedRefs()
	got, st := figTable(t, "fig1", r)

	if got != clean {
		t.Errorf("rerun over corrupted cache differs from clean run:\nclean:\n%s\nrerun:\n%s", clean, got)
	}
	if st.CacheHits != total-1 {
		t.Errorf("CacheHits = %d, want %d (every entry but the corrupted one)", st.CacheHits, total-1)
	}
	oneJob := uint64(r.Cores) * uint64(r.Warmup+r.Measure)
	if simulated := SimulatedRefs() - refsBefore; simulated != oneJob {
		t.Errorf("rerun simulated %d refs, want %d (only the corrupted entry)", simulated, oneJob)
	}
}

// TestUnusableStoreRunsClean: a CacheDir that names a regular file can
// hold no entries — every read misses and every write fails — and the
// sweep must neither panic nor change a byte: it simply runs every job.
func TestUnusableStoreRunsClean(t *testing.T) {
	clean, total := cleanRun(t, "fig1")
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	o := resilienceOptions()
	o.CacheDir = file
	got, st := figTable(t, "fig1", o)
	if got != clean {
		t.Errorf("run over an unusable store differs from clean run:\nclean:\n%s\ngot:\n%s", clean, got)
	}
	if st.CacheHits != 0 || st.Completed != total || len(st.Failed) != 0 {
		t.Errorf("status = %d hits, %d completed, %d failed; want 0/%d/0",
			st.CacheHits, st.Completed, len(st.Failed), total)
	}
}

// TestParallelFaultedSweep drives the whole recovery machinery — fault
// injection, result storing and progress rendering — at elevated
// parallelism. The rest of the resilience suite stays serial for
// deterministic interruption points; this test exists for the race
// detector: eight workers storing results and advancing shared counters
// concurrently must still produce the same table bytes and status as the
// serial faulted run.
func TestParallelFaultedSweep(t *testing.T) {
	o := resilienceOptions()
	o.FaultSpec = "panic:" + faultedJob
	serial, sst := figTable(t, "fig1", o)

	var buf bytes.Buffer
	p := o
	p.Parallelism = 8
	p.CacheDir = t.TempDir()
	p.Telemetry = telemetry.NewSink(func() time.Time { return time.Unix(1000, 0) }, telemetry.Outputs{Progress: &buf})
	got, pst := figTable(t, "fig1", p)

	if got != serial {
		t.Errorf("parallel faulted run differs from serial faulted run:\nserial:\n%s\nparallel:\n%s", serial, got)
	}
	// Stacks name the goroutine, so they differ between the runs.
	unstacked := func(st SweepStatus) SweepStatus {
		st.Failed = append([]FailedJob(nil), st.Failed...)
		for i := range st.Failed {
			st.Failed[i].Stack = ""
		}
		return st
	}
	if a, b := unstacked(pst), unstacked(sst); !reflect.DeepEqual(a, b) {
		t.Errorf("parallel status %+v, serial status %+v", a, b)
	}
	if len(pst.Failed) != 1 {
		t.Errorf("Failed = %v, want the faulted job only", pst.Failed)
	}
	if !strings.Contains(buf.String(), "runs") {
		t.Error("progress reporter never rendered")
	}
}

// TestDrainExpireAbandonsInFlightJob: an expired drain must stop waiting
// for a wedged in-flight job and report it skipped, instead of hanging
// the sweep forever.
func TestDrainExpireAbandonsInFlightJob(t *testing.T) {
	o := resilienceOptions()
	o.FaultSpec = "hang:" + faultedJob
	o.Drain = NewDrain()
	gate := &hangGate{arrived: make(chan struct{}), release: make(chan struct{})}
	faultHangGate = gate

	var rep *Report
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, err = RunSweep(Request{Figs: []string{"fig1"}, Options: o})
	}()

	<-gate.arrived // the faulted job is now wedged in flight
	o.Drain.Request()
	o.Drain.Expire()
	<-done // the sweep returned without waiting for the wedged job
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Status

	// Release the abandoned goroutine and wait for its simulation to
	// finish, so it cannot leak SimulatedRefs into any later test.
	faultHangGate = nil
	refsBefore := SimulatedRefs()
	close(gate.release)
	for SimulatedRefs() == refsBefore {
		runtime.Gosched()
	}

	found := false
	for _, k := range st.Skipped {
		if k == faultedJob {
			found = true
		}
	}
	if !found {
		t.Errorf("Skipped = %v, want it to include the abandoned job %q", st.Skipped, faultedJob)
	}
}

// TestParseFaultSpec pins the grammar's accept/reject behavior, as
// Options.Validate applies it.
func TestParseFaultSpec(t *testing.T) {
	validate := func(spec string) error {
		o := DefaultOptions()
		o.FaultSpec = spec
		return o.Validate()
	}
	valid := []string{
		"",
		"panic:I-LRU",
		"corrupt:hetero.00; hang:homo",
		"drain-after:5",
		"panic:a;corrupt:b;drain-after:1",
	}
	for _, s := range valid {
		if err := validate(s); err != nil {
			t.Errorf("FaultSpec %q: Validate() = %v, want nil", s, err)
		}
	}
	invalid := []string{
		"panic",             // no argument
		"panic:",            // empty substring
		"panic:I-LRU@2",     // a job runs once: no attempt count
		"panic:x@zero",      // "@" in any argument
		"corrupt:x@1",       // ... of any directive
		"hang:@",            // ... even alone
		"corrupt:",          // empty substring
		"drain-after:x",     // non-numeric job count
		"drain-after:-1",    // negative job count
		"explode:x",         // unknown directive
		"panic:x;explode:y", // one bad directive rejects the spec
		"panic:a@1;corrupt:b;drain-after:1",
	}
	for _, s := range invalid {
		if err := validate(s); err == nil {
			t.Errorf("FaultSpec %q: Validate() = nil, want an error", s)
		}
	}
}
