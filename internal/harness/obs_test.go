package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// obsOptions is a tiny configuration for observability tests.
func obsOptions() Options {
	return Options{
		Scale:       32,
		Cores:       2,
		HeteroMixes: 1,
		HomoMixes:   0,
		Warmup:      1_000,
		Measure:     4_000,
		TPCECores:   2,
		Seed:        20210614,
		Parallelism: 1,
	}
}

// TestObsInvariance proves attaching the observability layer does not
// change a single simulated decision: the same figure renders
// byte-identically with obs off and obs fully on (sampler + events, no
// artifact output).
func TestObsInvariance(t *testing.T) {
	off, _ := figTable(t, "fig1", obsOptions())

	on := obsOptions()
	on.Obs = &ObsOptions{IntervalCycles: 2_000}
	got, _ := figTable(t, "fig1", on)

	if got != off {
		t.Fatalf("observability changed simulator output:\n--- obs off ---\n%s\n--- obs on ---\n%s", off, got)
	}
}

// TestObsArtifacts runs a multi-programmed and a multi-threaded figure
// with artifact output and checks every job produced a loadable Chrome
// trace, NDJSON events and an interval CSV with the expected header: one
// artifact set per job, named after its configuration label.
func TestObsArtifacts(t *testing.T) {
	for _, tc := range []struct{ id, labelPrefix string }{{"fig1", ""}, {"fig16", "mt."}} {
		t.Run(tc.id, func(t *testing.T) {
			dir := t.TempDir()
			opt := obsOptions()
			opt.Obs = &ObsOptions{IntervalCycles: 1_000, OutDir: dir}
			_, st := runFig(t, tc.id, opt)
			jobs := st.Completed

			traces, err := filepath.Glob(filepath.Join(dir, tc.labelPrefix+"*.trace.json"))
			if err != nil || len(traces) == 0 || len(traces) != jobs {
				t.Fatalf("%d trace artifacts in %s for %d jobs (err %v)", len(traces), dir, jobs, err)
			}
			for _, path := range traces {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var f struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &f); err != nil {
					t.Fatalf("%s: invalid JSON: %v", path, err)
				}
				if len(f.TraceEvents) == 0 {
					t.Fatalf("%s: empty traceEvents", path)
				}
			}

			csvs, err := filepath.Glob(filepath.Join(dir, tc.labelPrefix+"*.intervals.csv"))
			if err != nil || len(csvs) != len(traces) {
				t.Fatalf("got %d interval CSVs for %d traces (err %v)", len(csvs), len(traces), err)
			}
			data, err := os.ReadFile(csvs[0])
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(data), "scope,interval,id,") {
				t.Fatalf("unexpected CSV header: %q", strings.SplitN(string(data), "\n", 2)[0])
			}

			nds, _ := filepath.Glob(filepath.Join(dir, tc.labelPrefix+"*.events.ndjson"))
			if len(nds) != len(traces) {
				t.Fatalf("got %d NDJSON dumps for %d traces", len(nds), len(traces))
			}
		})
	}
}

func TestArtifactStem(t *testing.T) {
	got := artifactStem("I-LRU s=8", "hetero/0")
	if strings.ContainsAny(got, "/ ") {
		t.Fatalf("stem %q not filesystem-safe", got)
	}
	if got != "I-LRU_s_8-hetero_0" {
		t.Fatalf("stem = %q", got)
	}
}
