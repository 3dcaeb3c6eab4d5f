// Command zivsimd serves the sweep engine as a long-running HTTP/JSON
// job API: submit experiment sweeps, poll their status, stream their
// progress, and fetch result tables that are byte-identical to what the
// zivsim CLI prints for the same options. Jobs are content-addressed
// (the SHA-256 identity the result store uses), so identical submissions
// deduplicate and finished results are served instantly — across
// restarts when -state-dir is set. See docs/api.md for the endpoint
// reference and OPERATIONS.md for the runbook.
//
// Examples:
//
//	zivsimd                                   # serve on 127.0.0.1:9470, in-memory
//	zivsimd -addr :9470 -state-dir .zivsimd   # persistent result store + job records
//	zivsimd -workers 2 -parallel 4            # two sweeps at once, 4-way each
//	curl -XPOST localhost:9470/v1/jobs -d '{"figs":["fig8"]}'
//	curl localhost:9470/v1/jobs/<id>          # status + tables
//	curl localhost:9470/v1/jobs/<id>/events   # NDJSON progress stream
//	curl -XDELETE localhost:9470/v1/jobs/<id> # cancel
//
// The first SIGINT or SIGTERM begins a graceful drain: /healthz flips
// to 503, new submissions are rejected, queued jobs are canceled, and
// running sweeps stop dispatching while in-flight simulations finish
// and are stored in the result store (bounded by -drain-deadline). Status queries and /metrics keep answering until
// the drain completes. A second signal exits immediately with 130.
//
// Exit codes: 0 clean drain; 2 usage error; 4 the drain deadline
// expired with sweeps still in flight (the result store makes
// resubmissions resume); 1 other runtime errors; 130 second signal.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"zivsim/internal/server"
	"zivsim/internal/sigwatch"
)

// Exit codes; documented in OPERATIONS.md and docs/cli.md.
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitInterrupted = 4
)

func main() {
	os.Exit(run())
}

// run parses flags, serves the job API until a signal drains it, and
// returns the process exit code.
func run() int {
	var (
		addr          = flag.String("addr", "127.0.0.1:9470", "listen address for the HTTP API (use :0 for an ephemeral port)")
		stateDir      = flag.String("state-dir", "", "directory for persistent state: the result store and completed-job records (empty = in-memory only)")
		queueDepth    = flag.Int("queue-depth", 8, "max pending (queued+running) jobs per client before submissions get 429")
		workers       = flag.Int("workers", 1, "how many sweeps run concurrently (each parallelizes internally)")
		par           = flag.Int("parallel", 0, "cap on each sweep's concurrent simulations (0 = no cap; submissions may ask for less)")
		retries       = flag.Int("retries", 2, "attempts per simulation before it is recorded as failed")
		reqTimeout    = flag.Duration("request-timeout", 10*time.Second, "deadline for non-streaming API requests")
		drainDeadline = flag.Duration("drain-deadline", 0, "after an interrupt, how long to wait for in-flight sweeps (0 = until they finish)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: zivsimd [flags]  (see -help)")
		return exitUsage
	}

	srv, err := server.New(server.Config{
		Now:            time.Now,
		StateDir:       *stateDir,
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		Parallelism:    *par,
		Retries:        *retries,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "zivsimd: %v\n", err)
		return exitError
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zivsimd: -addr: %v\n", err)
		return exitError
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "zivsimd: serving on http://%s\n", ln.Addr())

	// Graceful drain: the first SIGINT/SIGTERM closes stop (srv.Run
	// cancels queued jobs and drains running sweeps) and arms the
	// -drain-deadline timer; a second signal exits immediately with the
	// conventional 130.
	stop := make(chan struct{})
	sigwatch.Watch("zivsimd: interrupt — draining (in-flight sweeps finish; interrupt again to exit now)",
		*drainDeadline, srv.AbandonInflight, func() { close(stop) })

	// The listener goroutine is joined after the drain so status queries
	// and /metrics scrapes keep answering while sweeps wind down.
	served := make(chan struct{})
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "zivsimd: http: %v\n", err)
		}
		close(served)
	}()

	srv.Run(stop) // blocks until a signal arrives and every sweep drains

	httpSrv.Close()
	<-served

	if srv.Abandoned() {
		fmt.Fprintln(os.Stderr, "zivsimd: drain deadline expired with sweeps in flight; the result store makes identical resubmissions resume")
		return exitInterrupted
	}
	fmt.Fprintln(os.Stderr, "zivsimd: drained cleanly")
	return exitOK
}
