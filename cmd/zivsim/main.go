// Command zivsim runs the paper-reproduction experiments: one experiment per
// figure of the ZIV paper's evaluation (Figs. 1-4 and 8-19).
//
// Examples:
//
//	zivsim -list                 # show available experiments
//	zivsim -fig fig8             # reproduce Fig. 8 at laptop scale
//	zivsim -fig all -csv         # everything, CSV output
//	zivsim -fig fig11 -scale 1 -mixes 36 -homo 36   # paper-fidelity run
//	zivsim -fig all -store .zivcache   # store results; reruns are instant,
//	                             # and a rerun resumes an interrupted sweep
//	zivsim -fig fig1 -obs-interval 5000 -obs-out obsout
//	                             # per-run Perfetto traces, event dumps, interval CSVs
//	zivsim -fig all -progress    # live run counter + ETA on stderr
//	zivsim -fig all -telemetry-addr :9464 -ledger run.ndjson -sweep-trace sweep.trace.json
//	                             # /metrics + /healthz + pprof, run ledger, sweep timeline
//	zivsim -config               # print the simulated machine (Table I)
//
// Long sweeps are fault-isolated: a panic in one simulation fails that
// job only (after -retries attempts) and the sweep continues. SIGINT or
// SIGTERM triggers a graceful drain — dispatching stops, in-flight jobs
// finish (bounded by -job-deadline), completed work is flushed to the
// -store directory and observability artifacts — and a second signal
// exits immediately. See OPERATIONS.md for the runbook.
//
// Exit codes: 0 success; 2 usage error or options that cannot build a
// machine (see harness.Options.Validate); 3 the sweep completed but at
// least one job failed (a failed-job report is printed to stderr); 4 the
// sweep was interrupted and drained (resume by rerunning with the same
// -store); 1 other runtime errors (an unusable -ledger file or
// -telemetry-addr).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"zivsim/internal/harness"
	"zivsim/internal/hierarchy"
	"zivsim/internal/sigwatch"
	"zivsim/internal/telemetry"
)

// Exit codes; documented in OPERATIONS.md and docs/cli.md.
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitFailedJobs  = 3
	exitInterrupted = 4
)

func main() {
	os.Exit(run())
}

// run parses flags, executes the requested experiments and returns the
// process exit code. It exists (rather than doing everything in main) so
// the deferred ledger, sweep-trace and telemetry finalizers run before
// os.Exit.
func run() int {
	options := modelFlags(flag.CommandLine)
	var (
		figID   = flag.String("fig", "", "experiment to run (fig1..fig19, or 'all')")
		list    = flag.Bool("list", false, "list available experiments")
		showCfg = flag.Bool("config", false, "print the simulated machine configuration (Table I)")
		par     = flag.Int("parallel", 0, "max concurrent simulations (0 = NumCPU)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")

		storeDir    = flag.String("store", "", "result store directory: every finished simulation is stored there and reused, so rerunning with the same -store resumes a sweep (empty = off)")
		retries     = flag.Int("retries", 2, "attempts per job before it is recorded as failed")
		jobDeadline = flag.Duration("job-deadline", 0, "after an interrupt, how long to wait for in-flight jobs (0 = until they finish)")
		faultspec   = flag.String("faultspec", "", "deterministic fault injection for testing, e.g. 'panic:KEY@1;drain-after:3' (see OPERATIONS.md)")
		obsIval     = flag.Uint64("obs-interval", 0, "sample machine counters every N simulated cycles and keep each run's last 4096 simulator events (0 = off)")
		obsOut      = flag.String("obs-out", "obsout", "directory for observability artifacts (trace/NDJSON/CSV)")
		progress    = flag.Bool("progress", false, "live run progress on stderr")
		telAddr     = flag.String("telemetry-addr", "", "serve /metrics, /healthz and /debug/pprof on this address for the duration of the run (empty = off)")
		telLinger   = flag.Duration("telemetry-linger", 0, "keep the telemetry endpoint serving this long after the sweep finishes (interrupt to stop early)")
		ledgerPath  = flag.String("ledger", "", "append one NDJSON record per job attempt to this run-ledger file (see zivreport -ledger)")
		sweepTrace  = flag.String("sweep-trace", "", "write the sweep's per-job lifecycle timeline as Chrome trace JSON to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return exitOK
	}
	opt := options()
	opt.Parallelism = *par
	opt.CacheDir = *storeDir
	opt.MaxAttempts = *retries
	opt.FaultSpec = *faultspec
	if *obsIval > 0 {
		opt.Obs = &harness.ObsOptions{IntervalCycles: *obsIval, OutDir: *obsOut}
	}
	if err := opt.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "zivsim: invalid options: %v\n", err)
		return exitUsage
	}
	if *showCfg {
		printConfig(opt.Cores, opt.Scale)
		return exitOK
	}
	if *figID == "" {
		fmt.Fprintln(os.Stderr, "usage: zivsim -fig <id>|all  (see -list)")
		return exitUsage
	}

	// Graceful drain: the first SIGINT/SIGTERM stops dispatching and arms
	// the -job-deadline timer; in-flight simulations finish (or are
	// abandoned at the deadline) and completed work is flushed. A second
	// signal exits immediately with the conventional 130.
	drain := harness.NewDrain()
	opt.Drain = drain
	sigwatch.Watch("zivsim: interrupt — draining (in-flight jobs finish; interrupt again to exit now)",
		*jobDeadline, drain.Expire, drain.Request)

	// Telemetry: metrics registry + HTTP endpoint, sweep timeline, run
	// ledger and progress line, all fed by one sink (see OPERATIONS.md).
	// The server goroutine is spawned and joined here: its defer runs
	// last (defers are LIFO), so the ledger is closed and the sweep trace
	// written before the endpoint lingers and shuts down — a final
	// scrape during -telemetry-linger sees the finished sweep with all
	// artifacts already on disk.
	var telReg *telemetry.Registry
	if *telAddr != "" {
		telReg = telemetry.NewRegistry()
		ln, err := net.Listen("tcp", *telAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zivsim: -telemetry-addr: %v\n", err)
			return exitError
		}
		mux := http.NewServeMux()
		telemetry.RegisterRoutes(mux, telReg, nil)
		tsrv := &http.Server{Handler: mux}
		served := make(chan struct{})
		go func() {
			if err := tsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "zivsim: telemetry server: %v\n", err)
			}
			close(served)
		}()
		fmt.Fprintf(os.Stderr, "zivsim: telemetry on http://%s/metrics\n", ln.Addr())
		defer func() {
			if *telLinger > 0 && !drain.Requested() {
				fmt.Fprintf(os.Stderr, "zivsim: telemetry lingering %v (interrupt to stop)\n", *telLinger)
				deadline := time.Now().Add(*telLinger)
				for time.Now().Before(deadline) && !drain.Requested() {
					time.Sleep(50 * time.Millisecond)
				}
			}
			tsrv.Close() // immediate: a hanging pprof stream must not keep the process alive
			<-served
		}()
	}
	if telReg != nil || *ledgerPath != "" || *sweepTrace != "" || *progress {
		out := telemetry.Outputs{Registry: telReg, Timeline: *sweepTrace != ""}
		if *ledgerPath != "" {
			led, err := telemetry.CreateLedger(*ledgerPath, opt.IdentityHash())
			if err != nil {
				fmt.Fprintf(os.Stderr, "zivsim: -ledger: %v\n", err)
				return exitError
			}
			defer led.Close()
			out.Ledger = led
		}
		if *progress {
			out.Progress = os.Stderr
		}
		sink := telemetry.NewSink(time.Now, out)
		opt.Telemetry = sink
		if *sweepTrace != "" {
			path, label := *sweepTrace, "zivsim -fig "+*figID
			defer func() {
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "zivsim: -sweep-trace: %v\n", err)
					return
				}
				defer f.Close()
				if err := sink.WriteSweepTrace(f, label); err != nil {
					fmt.Fprintf(os.Stderr, "zivsim: -sweep-trace: %v\n", err)
				}
			}()
		}
	}

	if _, err := harness.ResolveFigs([]string{*figID}); err != nil {
		fmt.Fprintf(os.Stderr, "zivsim: unknown experiment %q (see -list)\n", *figID)
		return exitUsage
	}

	// The sweep itself lives in the harness library (RunSweep); this
	// front end only streams each finished figure to the terminal.
	start := time.Now()
	onFigure := func(fr harness.FigureResult) {
		opt.Telemetry.Finish()
		if fr.Err != "" {
			fmt.Fprintf(os.Stderr, "zivsim: experiment %s panicked: %v\n", fr.ID, fr.Err)
			start = time.Now()
			return
		}
		if *csv {
			fmt.Print(fr.Table.CSV())
		} else {
			fmt.Print(fr.Table.Format())
			fmt.Printf("(%s in %v)\n\n", fr.ID, time.Since(start).Round(time.Millisecond))
		}
		start = time.Now()
	}
	rep, err := harness.RunSweep(harness.Request{
		Figs:     []string{*figID},
		Options:  opt,
		OnFigure: onFigure,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "zivsim: %v\n", err)
		return exitUsage
	}

	st := rep.Status
	if drain.Requested() {
		fmt.Fprintf(os.Stderr, "zivsim: interrupted: %d job(s) completed (%d from the store), %d failed, %d skipped\n",
			st.Completed, st.CacheHits, len(st.Failed), len(st.Skipped))
		if opt.CacheDir != "" {
			fmt.Fprintf(os.Stderr, "zivsim: completed jobs are stored in %s; rerun with the same -store to continue\n", opt.CacheDir)
		} else {
			fmt.Fprintln(os.Stderr, "zivsim: no -store was set; rerun with -store DIR to make sweeps resumable")
		}
		return exitInterrupted
	}
	if len(st.Failed) > 0 || rep.Panics() > 0 {
		reportFailures(st, rep.Panics())
		return exitFailedJobs
	}
	return exitOK
}

// modelFlags registers the flags that describe the simulated model on
// fs, writing into options that start from harness.DefaultOptions, so
// -help shows those defaults. The returned function, called after
// fs.Parse, yields the options: rebased onto harness.PaperOptions under
// -paper, with every flag the user set applied again on top.
func modelFlags(fs *flag.FlagSet) func() harness.Options {
	opt := harness.DefaultOptions()
	fs.IntVar(&opt.Scale, "scale", opt.Scale, "capacity divisor for every cache (1 = paper's full-size machine)")
	fs.IntVar(&opt.Cores, "cores", opt.Cores, "core count for multi-programmed experiments")
	fs.IntVar(&opt.HeteroMixes, "mixes", opt.HeteroMixes, "number of heterogeneous mixes (paper: 36)")
	fs.IntVar(&opt.HomoMixes, "homo", opt.HomoMixes, "number of homogeneous mixes (paper: 36)")
	fs.IntVar(&opt.Warmup, "warmup", opt.Warmup, "warm-up references per core")
	fs.IntVar(&opt.Measure, "refs", opt.Measure, "measured references per core")
	fs.IntVar(&opt.TPCECores, "tpce-cores", opt.TPCECores, "core count for the TPC-E experiment (paper: 128)")
	fs.Uint64Var(&opt.Seed, "seed", opt.Seed, "deterministic seed")
	paper := fs.Bool("paper", false, "paper-fidelity base options (slow); flags you set still apply")
	return func() harness.Options {
		if *paper {
			set := map[string]string{}
			fs.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
			opt = harness.PaperOptions()
			for name, value := range set {
				// Every value is one the flag itself printed, so it parses.
				_ = fs.Set(name, value)
			}
		}
		return opt
	}
}

// reportFailures prints the failed-job report: one summary line per job
// plus an indented stack, so a failure in an overnight sweep is
// diagnosable from the log alone.
func reportFailures(st harness.SweepStatus, experimentPanics int) {
	fmt.Fprintf(os.Stderr, "zivsim: %d job(s) failed (%d completed)\n", len(st.Failed), st.Completed)
	for _, f := range st.Failed {
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", f)
		for _, line := range strings.Split(strings.TrimRight(f.Stack, "\n"), "\n") {
			fmt.Fprintf(os.Stderr, "    %s\n", line)
		}
	}
	if experimentPanics > 0 {
		fmt.Fprintf(os.Stderr, "zivsim: %d experiment(s) aborted outside the job runner (see panics above)\n", experimentPanics)
	}
	fmt.Fprintln(os.Stderr, "zivsim: rerun with the same -store to retry only the failed jobs (see OPERATIONS.md)")
}

// printConfig echoes the simulated machine parameters (the paper's Table I)
// for each L2 configuration.
func printConfig(cores, scale int) {
	fmt.Printf("Simulated CMP (scale 1/%d of the paper's machine)\n\n", scale)
	for _, l2 := range []int{256 << 10, 512 << 10, 768 << 10} {
		cfg := hierarchy.DefaultConfig(cores, l2, scale)
		fmt.Printf("L2 %dKB configuration:\n", l2>>10)
		fmt.Printf("  cores:            %d (x86-like trace-driven, 4 GHz)\n", cfg.Cores)
		fmt.Printf("  L1D:              %d KB, %d-way, LRU, %d-cycle\n", cfg.L1Bytes>>10, cfg.L1Ways, cfg.L1Latency)
		fmt.Printf("  L2:               %d KB, %d-way, LRU, %d-cycle\n", cfg.L2Bytes>>10, cfg.L2Ways, cfg.L2Latency)
		fmt.Printf("  LLC:              %d MB total, %d banks, %d-way, tag %d + data %d cycles\n",
			cfg.LLCBytes>>20, cfg.LLCBanks, cfg.LLCWays, cfg.LLCTagLat, cfg.LLCDataLat)
		fmt.Printf("  sparse directory: %.2gx, %d-way, NRU\n", cfg.DirFactor, cfg.DirWays)
		fmt.Printf("  relocated access: +%d cycles\n", cfg.RelocAccessDelta)
		fmt.Printf("  memory:           %d ch DDR3-2133, %d ranks, %d banks, %dB rows\n\n",
			cfg.Mem.Channels, cfg.Mem.Ranks, cfg.Mem.Banks, cfg.Mem.RowBytes)
	}
}
