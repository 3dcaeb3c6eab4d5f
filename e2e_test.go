package zivsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The commands under cmd/, built once per test process by commands.
var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// commands builds every command under cmd/ into one temporary directory,
// once per test process, and returns that directory. It first reads the
// non-test Go sources under cmd/ and internal/ (lint fixtures under
// testdata/ aside): the go test cache keys a result on the files the test
// opens, and the commands run as child processes, so without the reads a
// change made only in a command could pass from the cache.
func commands(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		for _, root := range []string{"cmd", "internal"} {
			if buildErr = readSources(root); buildErr != nil {
				return
			}
		}
		if binDir, buildErr = os.MkdirTemp("", "zivsim-cmd-"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/...").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

// readSources reads every non-test .go file under root, skipping
// testdata directories.
func readSources(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		_, err = os.ReadFile(path)
		return err
	})
}

// waitLimit bounds every wait on a child process: a command that should
// answer, print or exit within seconds fails the test after it instead of
// hanging it.
const waitLimit = 2 * time.Minute

// exitCode maps the error of a finished command to its exit status: 0
// for nil, the status an *exec.ExitError carries (-1 when a signal ended
// the process), and a test failure for an error that is neither.
func exitCode(t *testing.T, cmd *exec.Cmd, err error) int {
	t.Helper()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	return 0
}

// runExit runs a command to completion, fails the test unless it exits
// with want, and returns its stdout and stderr.
func runExit(t *testing.T, want int, path string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if got := exitCode(t, cmd, cmd.Run()); got != want {
		t.Fatalf("%s: exit %d, want %d\nstderr:\n%s", cmd, got, want, errOut.Bytes())
	}
	return out.Bytes(), errOut.Bytes()
}

// logBuffer collects a background command's stderr; each write wakes
// whoever waits for a line.
type logBuffer struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	changed chan struct{} // closed by the next Write
}

func (l *logBuffer) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(b)
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
	return len(b), nil
}

// snapshot returns the text written so far and a channel that the next
// write closes.
func (l *logBuffer) snapshot() (string, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return l.buf.String(), l.changed
}

func (l *logBuffer) String() string {
	s, _ := l.snapshot()
	return s
}

// proc is a command running in the background. The test's cleanup kills
// and reaps it, so no child outlives its test.
type proc struct {
	cmd    *exec.Cmd
	stderr logBuffer
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, set before done closes
}

func start(t *testing.T, path string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(path, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("%s: %v", p.cmd, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill() // fails harmlessly once the process has exited
		<-p.done
	})
	return p
}

// signal sends sig to the process.
func (p *proc) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("%s: signal %v: %v", p.cmd, sig, err)
	}
}

// wait waits for the process to exit and returns its exit status.
func (p *proc) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(waitLimit):
		t.Fatalf("%s: still running after %v\nstderr:\n%s", p.cmd, waitLimit, p.stderr.String())
	}
	return exitCode(t, p.cmd, p.err)
}

// await waits until the process's stderr matches pattern and returns the
// submatches. It fails the test if the process exits first.
func (p *proc) await(t *testing.T, pattern string) []string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	limit := time.After(waitLimit)
	for {
		text, changed := p.stderr.snapshot()
		if m := re.FindStringSubmatch(text); m != nil {
			return m
		}
		select {
		case <-changed:
		case <-p.done:
			// Wait returns only after stderr is fully copied.
			if m := re.FindStringSubmatch(p.stderr.String()); m != nil {
				return m
			}
			t.Fatalf("%s exited before printing %q\nstderr:\n%s", p.cmd, pattern, p.stderr.String())
		case <-limit:
			t.Fatalf("%s: no %q on stderr after %v\nstderr:\n%s", p.cmd, pattern, waitLimit, text)
		}
	}
}

var client = &http.Client{Timeout: waitLimit}

// fetch sends one request and returns the response body, failing the
// test on a transport error or an HTTP error status.
func fetch(t *testing.T, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	if resp.StatusCode >= 400 {
		t.Fatalf("%s %s: %s\n%s", method, url, resp.Status, b)
	}
	return b
}

// decode unmarshals a JSON body into v.
func decode(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
}

// metric returns the value of one series in a Prometheus exposition.
func metric(t *testing.T, exposition []byte, series string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` ([0-9]+)$`).FindSubmatch(exposition)
	if m == nil {
		t.Fatalf("no %s series in the scrape:\n%s", series, exposition)
	}
	n, _ := strconv.Atoi(string(m[1])) // the pattern admits digits only
	return n
}

// awaitInflight polls base's /metrics until a simulation is running. A
// scrape taken before the sweep registers its series counts as none.
func awaitInflight(t *testing.T, base string) {
	t.Helper()
	inflight := regexp.MustCompile(`(?m)^zivsim_sweep_jobs_inflight [1-9]`)
	for deadline := time.Now().Add(waitLimit); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if inflight.Match(fetch(t, "GET", base+"/metrics", "")) {
			return
		}
	}
	t.Fatalf("no simulation in flight at %s after %v", base, waitLimit)
}

// ledgerCount returns the count of one outcome row in a `zivreport
// -ledger` report.
func ledgerCount(t *testing.T, report []byte, outcome string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^\| ` + regexp.QuoteMeta(outcome) + ` \| ([0-9]+) \|$`).FindSubmatch(report)
	if m == nil {
		t.Fatalf("no %q row in the ledger report:\n%s", outcome, report)
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// lastProgress returns the last progress line ("K/N runs | …") that a
// -progress run rewrote on stderr.
func lastProgress(stderr []byte) string {
	last := ""
	for _, line := range strings.FieldsFunc(string(stderr), func(r rune) bool { return r == '\r' || r == '\n' }) {
		if strings.Contains(line, "runs") {
			last = line
		}
	}
	return last
}

// write saves b to a file in dir and returns its path.
func write(t *testing.T, dir, name string, b []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tiny returns flags for a machine at 1/32 scale with two-core mixes
// and a few thousand references per core, so that one simulation takes
// milliseconds, followed by extra. A later flag overrides an earlier one.
// The result has no spare capacity, so appending to it never writes into
// a slice that another leg holds.
func tiny(extra ...string) []string {
	return slices.Clip(append([]string{"-scale", "32", "-cores", "2", "-homo", "0", "-warmup", "1000", "-refs", "4000"}, extra...))
}

// TestEndToEnd drives the built commands the way OPERATIONS.md tells an
// operator to: exit codes, drain and resume over a result store (also
// after SIGKILL), a failed job counted once, the telemetry endpoint and
// artifacts, the zivsimd job API, and the obs artifacts. `make
// resume-smoke`, `telemetry-smoke`, `serve-smoke` and `obs-smoke` run
// its groups.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every command; skipped in -short mode")
	}
	bin := commands(t)
	zivsim := filepath.Join(bin, "zivsim")
	zivsimd := filepath.Join(bin, "zivsimd")
	zivreport := filepath.Join(bin, "zivreport")
	fig1 := tiny("-fig", "fig1", "-mixes", "2", "-parallel", "1", "-csv")

	t.Run("resume", func(t *testing.T) {
		t.Run("invalid-options", func(t *testing.T) {
			// No machine has 1/3 of the paper's capacities.
			runExit(t, 2, zivsim, "-fig", "fig1", "-scale", "3")
		})
		t.Run("attempt-count-faultspec", func(t *testing.T) {
			runExit(t, 2, zivsim, "-fig", "fig1", "-faultspec", "panic:X@1")
		})

		// drainResume runs a sweep cleanly with -progress, then drained by
		// fault injection after three jobs (exit 4), then again over the
		// drained run's store, whose output must equal the clean run's. It
		// returns the clean run's stderr.
		drainResume := func(t *testing.T, args []string) []byte {
			st := filepath.Join(t.TempDir(), "store")
			clean, progress := runExit(t, 0, zivsim, append(args, "-progress")...)
			runExit(t, 4, zivsim, append(args, "-store", st, "-faultspec", "drain-after:3")...)
			if resumed, _ := runExit(t, 0, zivsim, append(args, "-store", st)...); !bytes.Equal(clean, resumed) {
				t.Errorf("resumed output differs from the clean run\nclean:\n%s\nresumed:\n%s", clean, resumed)
			}
			return progress
		}
		t.Run("fig1-drain-resume", func(t *testing.T) {
			last := lastProgress(drainResume(t, fig1))
			m := regexp.MustCompile(`^([1-9][0-9]*)/([0-9]+) runs`).FindStringSubmatch(last)
			if m == nil || m[1] != m[2] {
				t.Errorf("-progress did not end on a K/K runs line: %q", last)
			}
		})
		t.Run("fig16-drain-resume", func(t *testing.T) {
			drainResume(t, tiny("-fig", "fig16", "-mixes", "2", "-tpce-cores", "4", "-parallel", "1", "-csv"))
		})

		t.Run("kill-resume", func(t *testing.T) {
			dir := t.TempDir()
			st := filepath.Join(dir, "store")
			long := append(fig1, "-refs", "100000") // 24 jobs, a few seconds
			clean, _ := runExit(t, 0, zivsim, long...)

			p := start(t, zivsim, append(long, "-store", st)...)
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
				stored, _ := filepath.Glob(filepath.Join(st, "*.json"))
				if len(stored) >= 2 {
					break
				}
				select {
				case <-p.done:
					t.Fatalf("the sweep ended before two results were stored\nstderr:\n%s", p.stderr.String())
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("fewer than two results stored after 30s")
				}
			}
			if err := p.cmd.Process.Kill(); err != nil {
				t.Fatalf("kill: %v", err)
			}
			if code := p.wait(t); code != -1 {
				t.Fatalf("the sweep ended before the kill (exit %d)", code)
			}

			ledger := filepath.Join(dir, "killed.ndjson")
			if rerun, _ := runExit(t, 0, zivsim, append(long, "-store", st, "-ledger", ledger)...); !bytes.Equal(clean, rerun) {
				t.Errorf("rerun after SIGKILL differs from the clean run\nclean:\n%s\nrerun:\n%s", clean, rerun)
			}
			report, _ := runExit(t, 0, zivreport, "-ledger", ledger)
			if hits, done := ledgerCount(t, report, "cache-hit"), ledgerCount(t, report, "done"); hits < 2 || done < 1 {
				t.Errorf("rerun after the kill: %d cache-hit, %d done; want >= 2 and >= 1\n%s", hits, done, report)
			}
		})

		t.Run("faulted-all", func(t *testing.T) {
			// The faulted job is shared by six figures; it must run and
			// be counted once.
			ledger := filepath.Join(t.TempDir(), "faulted.ndjson")
			_, stderr := runExit(t, 3, zivsim, tiny("-fig", "all", "-mixes", "1", "-tpce-cores", "4", "-parallel", "2", "-csv",
				"-progress", "-ledger", ledger, "-faultspec", "panic:NI-LRU-256KB|hetero.00")...)
			if !regexp.MustCompile(`(?m)^zivsim: 1 job\(s\) failed`).Match(stderr) {
				t.Errorf("stderr does not report one failed job:\n%s", stderr)
			}
			if last := lastProgress(stderr); !strings.Contains(last, "| 1 failed |") {
				t.Errorf("last progress line %q does not count one failed job", last)
			}
			report, _ := runExit(t, 0, zivreport, "-ledger", ledger)
			if n := ledgerCount(t, report, "failed"); n != 1 {
				t.Errorf("the ledger counts %d failed jobs, want 1\n%s", n, report)
			}
		})

		t.Run("second-interrupt", func(t *testing.T) {
			// A second SIGINT exits 130 while the drain still waits for
			// an in-flight simulation of seconds.
			p := start(t, zivsim, tiny("-fig", "fig1", "-mixes", "1", "-refs", "5000000", "-parallel", "1",
				"-telemetry-addr", "127.0.0.1:0")...)
			awaitInflight(t, "http://"+p.await(t, `telemetry on http://(\S+)/metrics`)[1])
			p.signal(t, os.Interrupt)
			p.await(t, "draining")
			p.signal(t, os.Interrupt)
			if code := p.wait(t); code != 130 {
				t.Errorf("exit %d after a second interrupt, want 130\nstderr:\n%s", code, p.stderr.String())
			}
		})
	})

	t.Run("telemetry", func(t *testing.T) {
		t.Run("linger-scrape-interrupt", func(t *testing.T) {
			dir := t.TempDir()
			ledger := filepath.Join(dir, "run.ndjson")
			trace := filepath.Join(dir, "sweep.trace.json")
			p := start(t, zivsim, append(fig1, "-telemetry-addr", "127.0.0.1:0", "-telemetry-linger", "60s",
				"-store", filepath.Join(dir, "store"), "-ledger", ledger, "-sweep-trace", trace)...)
			addr := p.await(t, `telemetry on http://(\S+)/metrics`)[1]
			p.await(t, "telemetry lingering")
			var health struct{ Status string }
			if decode(t, fetch(t, "GET", "http://"+addr+"/healthz", ""), &health); health.Status != "ok" {
				t.Errorf("/healthz status %q, want ok", health.Status)
			}
			scrape := fetch(t, "GET", "http://"+addr+"/metrics", "")
			p.signal(t, os.Interrupt)
			if code := p.wait(t); code != 0 {
				t.Fatalf("exit %d after one interrupt, want 0\nstderr:\n%s", code, p.stderr.String())
			}

			runExit(t, 0, zivreport, "-checkmetrics", write(t, dir, "metrics.txt", scrape))
			runExit(t, 0, zivreport, "-checktrace", trace)
			report, _ := runExit(t, 0, zivreport, "-ledger", ledger)
			// Both count the same lifecycle records.
			n := metric(t, scrape, `zivsim_sweep_jobs_total{outcome="done"}`)
			if led := ledgerCount(t, report, "done"); n < 1 || led != n {
				t.Errorf("scraped done counter %d, ledger done row %d; want equal and > 0\n%s", n, led, report)
			}
		})
		t.Run("ledger-directory", func(t *testing.T) {
			runExit(t, 1, zivsim, "-fig", "fig1", "-ledger", t.TempDir())
		})
		t.Run("unknown-figure", func(t *testing.T) {
			// An unknown figure is a usage error found before any side
			// effect: no listener lingers, no ledger is truncated, no
			// sweep trace is written.
			dir := t.TempDir()
			prior := []byte("a ledger from an earlier run\n")
			ledger := write(t, dir, "run.ndjson", prior)
			trace := filepath.Join(dir, "sweep.trace.json")
			began := time.Now()
			runExit(t, 2, zivsim, "-fig", "nope", "-ledger", ledger, "-sweep-trace", trace,
				"-telemetry-addr", "127.0.0.1:0", "-telemetry-linger", "10s")
			if took := time.Since(began); took > 5*time.Second {
				t.Errorf("exit took %v, want well within the 10s linger", took)
			}
			if got, err := os.ReadFile(ledger); err != nil || !bytes.Equal(got, prior) {
				t.Errorf("the existing ledger was changed: %q, %v", got, err)
			}
			if _, err := os.Stat(trace); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("sweep trace written for an unknown figure (stat: %v)", err)
			}
		})
	})

	t.Run("serve", func(t *testing.T) {
		t.Run("round-trip", func(t *testing.T) {
			dir := t.TempDir()
			direct, _ := runExit(t, 0, zivsim, tiny("-fig", "fig1", "-mixes", "2", "-parallel", "1")...)
			var want []byte
			for _, line := range bytes.SplitAfter(direct, []byte("\n")) {
				if !bytes.HasPrefix(line, []byte("(fig")) { // the timing line
					want = append(want, line...)
				}
			}

			p := start(t, zivsimd, "-addr", "127.0.0.1:0", "-state-dir", filepath.Join(dir, "state"))
			base := "http://" + p.await(t, `serving on http://(\S+)\n`)[1]
			var job struct {
				ID      string
				State   string
				Figures []struct{ Text string }
			}
			decode(t, fetch(t, "POST", base+"/v1/jobs",
				`{"figs":["fig1"],"options":{"scale":32,"cores":2,"hetero_mixes":2,"homo_mixes":0,"warmup":1000,"measure":4000}}`), &job)
			fetch(t, "GET", base+"/v1/jobs/"+job.ID+"/events", "") // the feed ends when the job does
			if decode(t, fetch(t, "GET", base+"/v1/jobs/"+job.ID, ""), &job); job.State != "done" || len(job.Figures) == 0 {
				t.Fatalf("job %s: state %q with %d figures, want done with fig1", job.ID, job.State, len(job.Figures))
			}
			if served := []byte(job.Figures[0].Text); !bytes.Equal(bytes.TrimRight(want, "\n"), bytes.TrimRight(served, "\n")) {
				t.Errorf("served table differs from the direct zivsim run\ndirect:\n%s\nserved:\n%s", want, served)
			}
			scrape := fetch(t, "GET", base+"/metrics", "")
			p.signal(t, syscall.SIGTERM)
			if code := p.wait(t); code != 0 {
				t.Fatalf("exit %d after SIGTERM, want 0\nstderr:\n%s", code, p.stderr.String())
			}

			runExit(t, 0, zivreport, "-checkmetrics", write(t, dir, "metrics.txt", scrape))
			if n := metric(t, scrape, `zivsimd_jobs_total{state="done"}`); n != 1 {
				t.Errorf(`zivsimd_jobs_total{state="done"} is %d, want 1`, n)
			}
			if n := metric(t, scrape, `zivsim_sweep_jobs_total{outcome="done"}`); n < 1 {
				t.Errorf(`zivsim_sweep_jobs_total{outcome="done"} is %d, want > 0`, n)
			}
			if !strings.Contains(p.stderr.String(), "drained cleanly") {
				t.Errorf("no clean drain on stderr:\n%s", p.stderr.String())
			}
		})
		t.Run("extra-argument", func(t *testing.T) {
			runExit(t, 2, zivsimd, "extra")
		})
		t.Run("bad-address", func(t *testing.T) {
			runExit(t, 1, zivsimd, "-addr", "bogus")
		})
		t.Run("drain-deadline", func(t *testing.T) {
			p := start(t, zivsimd, "-addr", "127.0.0.1:0", "-parallel", "1", "-drain-deadline", "200ms")
			base := "http://" + p.await(t, `serving on http://(\S+)\n`)[1]
			fetch(t, "POST", base+"/v1/jobs",
				`{"figs":["fig1"],"options":{"scale":32,"cores":2,"hetero_mixes":1,"homo_mixes":0,"warmup":1000,"measure":5000000}}`)
			awaitInflight(t, base)
			p.signal(t, syscall.SIGTERM)
			if code := p.wait(t); code != 4 {
				t.Errorf("exit %d when the drain deadline expired, want 4\nstderr:\n%s", code, p.stderr.String())
			}
		})
	})

	t.Run("obs", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "obsout")
		runExit(t, 0, zivsim, tiny("-fig", "fig1", "-mixes", "1", "-obs-interval", "2000", "-obs-out", out)...)
		t.Run("checktrace", func(t *testing.T) {
			runExit(t, 0, zivreport, "-checktrace", out)
		})
		t.Run("intervals", func(t *testing.T) {
			csvs, _ := filepath.Glob(filepath.Join(out, "*.intervals.csv"))
			if len(csvs) == 0 {
				t.Fatalf("no interval CSV in %s", out)
			}
			for _, csv := range csvs {
				if report, _ := runExit(t, 0, zivreport, "-obs", csv); len(report) == 0 {
					t.Errorf("zivreport -obs %s printed nothing", csv)
				}
			}
		})
	})
}
