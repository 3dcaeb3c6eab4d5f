package harness

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"zivsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files from the current simulator output")

// goldenOptions is a reduced-but-representative configuration used by the
// bit-identity gate: small enough to run in CI, large enough that every
// scheme, policy and property sees real contention. The golden file was
// generated before the hot-path optimization pass; any optimization that
// perturbs a single simulated decision changes these tables.
func goldenOptions() Options {
	return Options{
		Scale:       32,
		Cores:       8,
		HeteroMixes: 2,
		HomoMixes:   2,
		Warmup:      2_000,
		Measure:     8_000,
		TPCECores:   8,
		Seed:        20210614,
	}
}

// renderGolden produces the canonical text the golden file stores: every
// registered experiment's formatted table, in registry order, separated
// by blank lines. The experiments run as one sweep.
func renderGolden(t *testing.T) (ids []string, text string) {
	t.Helper()
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	tabs, _ := runFigs(t, goldenOptions(), ids...)
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(tabs[id].Format())
		b.WriteByte('\n')
	}
	return ids, b.String()
}

// mtGoldenSweep runs Figs. 16 and 17 at goldenOptions as one sweep, once
// per test binary, and returns its report and the references it
// simulated. TestGoldenMultiThreaded pins it; TestFig16And17Shape checks
// its shape.
var mtGoldenSweep = sync.OnceValues(func() (*Report, uint64) {
	refsBefore := SimulatedRefs()
	rep, err := RunSweep(Request{Figs: []string{"fig16", "fig17"}, Options: goldenOptions()})
	if err != nil {
		panic(err) // both IDs are registered and goldenOptions is valid
	}
	return rep, SimulatedRefs() - refsBefore
})

// TestGoldenDeterminism proves the simulator is bit-identical to the run
// recorded in testdata/golden_all.txt (generated before the optimization
// pass), for every registered experiment: every victim selection scheme,
// policy, relocation-set property and directory mode the figures use.
// Regenerate deliberately with `go test ./internal/harness -run
// TestGoldenDeterminism -update` — but only when simulated behaviour is
// *meant* to change, never to absorb an optimization's drift.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden gate skipped in -short mode")
	}
	ids, got := renderGolden(t)
	path := filepath.Join("testdata", "golden_all.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes, figures %v)", path, len(got), ids)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("simulator output diverged from golden run.\nFigures: %v\nThis means an 'optimization' changed simulated behaviour.\n%s",
			ids, firstDiff(string(want), got))
	}
}

// TestGoldenMultiThreaded pins how the multi-threaded Figs. 16-17 run
// (TestGoldenDeterminism pins their tables): the pair must run as runner
// jobs, per workload the I-LRU anchor (also a fig16 column) and six
// designs per figure, 60 simulations in all, each in the sweep status.
func TestGoldenMultiThreaded(t *testing.T) {
	if testing.Short() {
		t.Skip("golden gate skipped in -short mode")
	}
	rep, simulated := mtGoldenSweep()
	o := goldenOptions()
	if got := rep.Status.Completed; got != 60 {
		t.Errorf("Completed = %d, want 60 runner jobs", got)
	}
	var refs uint64
	for _, name := range workload.MTNames() {
		cores := o.Cores
		if name == "tpce" {
			cores = o.TPCECores
		}
		refs += 12 * uint64(cores) * uint64(o.Warmup+o.Measure)
	}
	if simulated != refs {
		t.Errorf("simulated %d refs, want %d (60 jobs)", simulated, refs)
	}
}

// TestGoldenResultsAll compares the full default-options -fig all run
// against the recorded results_all.txt tables. It simulates the complete
// (configuration x mix) matrix at DefaultOptions and takes tens of minutes
// on one CPU, so it only runs when ZIVSIM_GOLDEN=full.
func TestGoldenResultsAll(t *testing.T) {
	if os.Getenv("ZIVSIM_GOLDEN") != "full" {
		t.Skip("set ZIVSIM_GOLDEN=full to run the full results_all.txt gate")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "results_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := stripTimings(string(raw))
	rep, err := RunSweep(Request{Options: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, fr := range rep.Figures {
		if fr.Err != "" {
			t.Fatalf("%s panicked: %s", fr.ID, fr.Err)
		}
		b.WriteString(fr.Table.Format())
		b.WriteByte('\n')
	}
	got := stripTimings(b.String())
	if got != want {
		t.Fatalf("full -fig all output diverged from results_all.txt.\n%s", firstDiff(want, got))
	}
}

// timingLine matches the "(figN in 3m18.674s)" wall-clock lines the CLI
// appends; they are the only non-deterministic content of results_all.txt.
var timingLine = regexp.MustCompile(`(?m)^\(\w+ in [^)]*\)\n`)

func stripTimings(s string) string { return timingLine.ReplaceAllString(s, "") }

// firstDiff renders the first differing line with context.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return "first difference at line " + itoa(i+1) + ":\n  want: " + wl[i] + "\n  got:  " + gl[i]
		}
	}
	return "outputs differ in length: want " + itoa(len(wl)) + " lines, got " + itoa(len(gl))
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var d []byte
	for i > 0 {
		d = append([]byte{byte('0' + i%10)}, d...)
		i /= 10
	}
	return string(d)
}
