// Command zivbench measures end-to-end figure-regeneration throughput and
// writes a machine-readable report. Each listed experiment runs exactly once,
// as its own sweep with serial execution (Parallelism=1) and no result
// store, so the numbers are comparable across commits: same job set, same
// schedule, no reuse. `make bench` invokes it to produce BENCH_figs.json.
//
// The headline metric is simulated memory references per wall-clock second
// (refs/s): it normalizes for how much work each figure's configuration
// matrix implies, unlike raw seconds.
//
// `zivbench -compare old.json new.json` diffs two reports per figure and
// exits nonzero when any figure's refs/s regressed by more than
// -tolerance percent (default 5) — CI's bench-smoke job gates on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"zivsim/internal/harness"
)

// seedBaselineSeconds records each figure's wall time on the
// pre-optimization simulator with these exact options (cold, serial). The
// job set is a deterministic function of the options, so the simulated
// reference count is identical across commits and
// speedup = baselineSeconds / currentSeconds exactly.
var seedBaselineSeconds = map[string]float64{
	"fig1":  9.43,
	"fig8":  22.79,
	"fig11": 33.04,
}

// FigResult is one experiment's measurement.
type FigResult struct {
	ID         string  `json:"id"`
	Seconds    float64 `json:"seconds"`
	Refs       uint64  `json:"refs"`
	RefsPerSec float64 `json:"refs_per_sec"`
	// BaselineRefsPerSec is the pre-optimization simulator's throughput on
	// this figure (0 when unrecorded); Speedup = RefsPerSec / baseline.
	BaselineRefsPerSec float64 `json:"baseline_refs_per_sec,omitempty"`
	Speedup            float64 `json:"speedup,omitempty"`
}

// Report is the BENCH_figs.json schema.
type Report struct {
	Timestamp string      `json:"timestamp"`
	GoVersion string      `json:"go_version"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"num_cpu"`
	Options   string      `json:"options"`
	Figures   []FigResult `json:"figures"`
}

func main() {
	var (
		out       = flag.String("o", "BENCH_figs.json", "output report path")
		figs      = flag.String("figs", "fig1,fig8,fig11", "comma-separated experiment ids (or 'all')")
		quick     = flag.Bool("quick", false, "tiny workload for CI smoke runs (timings not comparable)")
		compare   = flag.Bool("compare", false, "compare two reports (zivbench -compare old.json new.json) instead of benchmarking")
		tolerance = flag.Float64("tolerance", 5, "refs/s regression percent tolerated by -compare before exiting nonzero")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: zivbench -compare [-tolerance pct] old.json new.json")
			os.Exit(2)
		}
		oldRep, err := readReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "zivbench: %v\n", err)
			os.Exit(1)
		}
		newRep, err := readReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "zivbench: %v\n", err)
			os.Exit(1)
		}
		if compareReports(oldRep, newRep, *tolerance, os.Stdout) > 0 {
			os.Exit(1)
		}
		return
	}

	opt := benchOptions()
	if *quick {
		opt.Warmup = 500
		opt.Measure = 2_000
	}

	var ids []string
	if *figs == "all" {
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*figs, ",")
	}

	rep := Report{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Options:   fmt.Sprintf("%+v", opt),
	}
	for _, id := range ids {
		before := harness.SimulatedRefs()
		start := time.Now()
		sweep, err := harness.RunSweep(harness.Request{Figs: []string{id}, Options: opt})
		dt := time.Since(start).Seconds()
		refs := harness.SimulatedRefs() - before
		if err != nil {
			fmt.Fprintf(os.Stderr, "zivbench: %v\n", err)
			os.Exit(2)
		}
		if fr := sweep.Figures[0]; fr.Err != "" {
			fmt.Fprintf(os.Stderr, "zivbench: %s panicked: %s\n", id, fr.Err)
			os.Exit(1)
		} else if len(fr.Table.Rows) == 0 {
			fmt.Fprintf(os.Stderr, "zivbench: %s produced no rows\n", id)
			os.Exit(1)
		}
		r := FigResult{
			ID:         id,
			Seconds:    dt,
			Refs:       refs,
			RefsPerSec: float64(refs) / dt,
		}
		if !*quick {
			if baseSec, ok := seedBaselineSeconds[id]; ok {
				r.BaselineRefsPerSec = float64(refs) / baseSec
				r.Speedup = baseSec / dt
			}
		}
		rep.Figures = append(rep.Figures, r)
		fmt.Printf("%-8s %8.2fs  %9d refs  %12.0f refs/s", id, r.Seconds, r.Refs, r.RefsPerSec) //ziv:ignore(detflow) wall-clock timing is the bench's payload
		if r.Speedup > 0 {
			fmt.Printf("  %.2fx vs seed", r.Speedup) //ziv:ignore(detflow) wall-clock timing is the bench's payload
		}
		fmt.Println()
	}

	data, err := json.MarshalIndent(rep, "", "\t")
	if err != nil {
		fmt.Fprintf(os.Stderr, "zivbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "zivbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// benchOptions mirrors the figure benches in bench_test.go: fixed reduced
// scale, serial, one sweep per figure. Keep the two in sync so
// `go test -bench=Fig` and zivbench measure the same work.
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Scale = 32
	o.HeteroMixes = 2
	o.HomoMixes = 2
	o.Warmup = 5_000
	o.Measure = 20_000
	o.TPCECores = 16
	o.Parallelism = 1
	return o
}
