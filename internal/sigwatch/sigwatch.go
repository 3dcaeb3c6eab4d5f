// Package sigwatch installs the two-stage interrupt convention shared
// by the zivsim and zivsimd front ends: the first SIGINT/SIGTERM asks
// the process to drain gracefully (in-flight simulations finish and are
// stored), a second signal exits immediately with the
// conventional status 130.
package sigwatch

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Watch arms the two-stage handler. On the first SIGINT/SIGTERM it
// prints msg to stderr, schedules expire after deadline (when deadline
// is positive and expire non-nil — the escape hatch for sweeps that
// refuse to finish), and calls drain; on a second signal it exits the
// process with status 130. The watcher goroutine lives until process
// exit by design.
func Watch(msg string, deadline time.Duration, expire func(), drain func()) {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { //ziv:ignore(goleak) process-lifetime signal watcher: lives until exit by design
		<-sig
		fmt.Fprintln(os.Stderr, msg)
		if deadline > 0 && expire != nil {
			time.AfterFunc(deadline, expire)
		}
		drain()
		<-sig
		os.Exit(130)
	}()
}
