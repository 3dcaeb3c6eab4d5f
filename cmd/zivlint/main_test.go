package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// capture runs the CLI entry point with argv and returns the exit code
// and the captured stdout/stderr contents. run takes *os.File (it is
// handed os.Stdout in production), so the capture goes through real
// temp files rather than buffers.
func capture(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	open := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	so, se := open("stdout"), open("stderr")
	code = run(argv, so, se)
	read := func(f *os.File) string {
		name := f.Name()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return code, read(so), read(se)
}

// TestBaselineGate runs the suite exactly as CI does — the whole module
// against the committed suppression baseline (zivlint.stats.json, as
// written by `make lint-stats-baseline`) — twice. Both runs must be
// clean (exit 0, nothing on stdout) and write byte-identical -stats
// reports, and the double run must finish inside a generous wall-clock
// bound so the suite stays cheap enough for every CI invocation.
func TestBaselineGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	budget := filepath.Join(root, "zivlint.stats.json")
	dir := t.TempDir()
	start := time.Now()
	var stats [2][]byte
	for i := range stats {
		path := filepath.Join(dir, fmt.Sprintf("stats%d.json", i))
		code, stdout, stderr := capture(t, "-stats", path, "-stats-gate", budget, "zivsim/...")
		if code != 0 {
			t.Fatalf("run %d: exit %d\nstdout:\n%s\nstderr:\n%s", i+1, code, stdout, stderr)
		}
		if stdout != "" {
			t.Fatalf("run %d: findings on a clean tree:\n%s", i+1, stdout)
		}
		if stats[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if !bytes.Equal(stats[0], stats[1]) {
		t.Fatalf("-stats reports differ across runs:\n%s\n---\n%s", stats[0], stats[1])
	}

	// Time bound: the double full-module run (load, type-check, every
	// analyzer, twice) must stay well under CI-breaking territory.
	const bound = 3 * time.Minute
	if elapsed > bound {
		t.Errorf("two full-module runs took %v, want < %v", elapsed, bound)
	}
	t.Logf("two full-module runs in %v", elapsed)
}

// TestHelpListsAllAnalyzers keeps the CLI's self-description in sync
// with the registered analyzer set.
func TestHelpListsAllAnalyzers(t *testing.T) {
	code, _, stderr := capture(t, "-help")
	if code != 0 {
		t.Fatalf("-help: exit %d", code)
	}
	for _, a := range analyzers {
		if !strings.Contains(stderr, a.Name) {
			t.Errorf("help output missing analyzer %q", a.Name)
		}
	}
}

// TestConcurrencyDriftGates proves the concurrency analyzers take part
// in every drift-control surface: findings fail the run and print in
// the same order on every run, an honored waiver counts against the
// stats gate, and the unusedignore known-set covers the new analyzer
// names. It runs the CLI against a throwaway module that trips each
// analyzer exactly once.
func TestConcurrencyDriftGates(t *testing.T) {
	if testing.Short() {
		t.Skip("module analysis in -short mode")
	}
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpconc\n\ngo 1.22\n")
	write("conc/conc.go", `// Package conc trips each concurrency analyzer exactly once.
package conc

import (
	"context"
	"sync"
)

type counter struct {
	mu sync.Mutex
	//ziv:guards(mu)
	n int
}

// Bump reads the guarded field without holding the lock: lockguard.
func (c *counter) Bump() int {
	return c.n
}

// Leak spawns a goroutine whose close is never received: goleak.
func Leak() {
	done := make(chan struct{})
	go func() { close(done) }()
}

// Reuse sends on a channel it already closed: chandiscipline.
func Reuse() {
	ch := make(chan int, 1)
	close(ch)
	ch <- 1
}

// Stall receives without honoring ctx cancellation: ctxflow.
func Stall(ctx context.Context, ch chan int) int {
	return <-ch
}

// Pump runs for the process lifetime; its goleak finding is waived, so
// the waiver counts as a suppression in the stats report.
func Pump() {
	go func() { //ziv:ignore(goleak) process-lifetime pump fixture
		for {
		}
	}()
}

// Tick carries a stale waiver: chandiscipline is a known analyzer but
// never fires here, so unusedignore reports the directive.
//
//ziv:ignore(chandiscipline) stale waiver kept for the unusedignore gate
var Tick int
`)

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	// Findings from every analyzer fail the run.
	code, stdout, stderr := capture(t, "./...")
	if code != 1 {
		t.Fatalf("findings: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, name := range []string{"lockguard", "goleak", "chandiscipline", "ctxflow", "unusedignore"} {
		if !strings.Contains(stdout, "("+name+")") {
			t.Errorf("run reports no %s finding:\n%s", name, stdout)
		}
	}

	// A second fresh run prints the same findings byte for byte.
	if code, again, stderr := capture(t, "./..."); code != 1 || again != stdout {
		t.Fatalf("second run: exit %d, stdout differs from the first\nfirst:\n%s\nsecond:\n%s\nstderr:\n%s",
			code, stdout, again, stderr)
	}

	// The honored goleak waiver counts against the stats gate: a
	// committed budget of zero suppressions must flag the rise.
	gate := filepath.Join(dir, "gate.json")
	if err := writeStats(gate, lintStats{Version: statsVersion, Analyzers: map[string]analyzerStats{}}); err != nil {
		t.Fatal(err)
	}
	stats := filepath.Join(dir, "stats.json")
	code, _, stderr = capture(t, "-stats", stats, "-stats-gate", gate, "./...")
	if code != 1 {
		t.Fatalf("stats-gated run: exit %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "suppression count rose: goleak: 0 -> 1") {
		t.Errorf("gate stderr = %q, want the goleak suppression rise", stderr)
	}

	// The emitted stats report rows the new analyzers.
	cur, err := loadStats(stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lockguard", "goleak", "chandiscipline", "ctxflow"} {
		if got := cur.Analyzers[name].Findings; got != 1 {
			t.Errorf("stats findings[%s] = %d, want 1", name, got)
		}
	}
	if got := cur.Analyzers["goleak"].Suppressions; got != 1 {
		t.Errorf("stats suppressions[goleak] = %d, want 1", got)
	}
}

// TestUsageErrors checks the exit contract for flag handling: -help is
// a successful request, an unknown flag is a usage error.
func TestUsageErrors(t *testing.T) {
	if code, _, stderr := capture(t, "-help"); code != 0 {
		t.Errorf("-help: exit %d, want 0\nstderr:\n%s", code, stderr)
	}
	if code, _, _ := capture(t, "-format=sarif", "zivsim/cmd/zivlint"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
