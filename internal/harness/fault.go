// Fault isolation and deterministic fault injection.
//
// Long sweeps must survive a single misbehaving job: a panic inside one
// simulation is recovered and recorded as a FailedJob diagnostic instead
// of killing the sweep. The job runs once: a simulation is a pure
// function of its configuration, mix and seed, so running it again in
// the same sweep would panic again. Recovery is a rerun over the result
// store, which simulates exactly the jobs that did not finish. A Drain
// value coordinates graceful shutdown: once requested, the worker pool
// stops dispatching new jobs and in-flight simulations either finish or
// are abandoned when the drain deadline expires.
//
// Faults are injected deterministically through Options.FaultSpec so the
// recovery, store and drain paths are testable end to end
// (see resilience_test.go and the CI resume-smoke job). The spec grammar
// is documented on Options.FaultSpec.
package harness

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// FailedJob is the diagnostic recorded for a job whose simulation
// panicked. It carries everything needed to reproduce the failure in
// isolation: the configuration label, the mix, and the sweep seed.
type FailedJob struct {
	// CfgLabel is the machine-configuration label of the failed job.
	CfgLabel string `json:"cfg"`
	// Mix is the workload-mix name of the failed job.
	Mix string `json:"mix"`
	// Seed is the sweep seed; rerunning the same (config, mix) under it
	// reproduces the failure deterministically.
	Seed uint64 `json:"seed"`
	// Err is the recovered panic value, formatted.
	Err string `json:"err"`
	// Stack is the goroutine stack captured where the job panicked.
	Stack string `json:"stack,omitempty"`
}

// String renders a one-line summary (the stack is reported separately).
func (f FailedJob) String() string {
	return fmt.Sprintf("%s on %s (seed %d): %s", f.CfgLabel, f.Mix, f.Seed, f.Err)
}

// Drain coordinates graceful shutdown of a sweep. Request stops the
// worker pool from dispatching further jobs; in-flight simulations keep
// running until they finish or Expire is called (the CLI arms a
// -job-deadline timer when the first signal arrives), at which point the
// pool abandons them and the sweep returns with those jobs marked
// skipped. Both transitions are one-way and safe to trigger from any
// goroutine; the harness itself never consults a clock.
type Drain struct {
	reqOnce sync.Once
	expOnce sync.Once
	req     chan struct{}
	exp     chan struct{}
}

// NewDrain returns a Drain in the running (not requested) state.
func NewDrain() *Drain {
	return &Drain{req: make(chan struct{}), exp: make(chan struct{})}
}

// Request asks the sweep to stop dispatching new jobs. Idempotent.
func (d *Drain) Request() {
	d.reqOnce.Do(func() { close(d.req) })
}

// Requested reports whether a drain has been requested.
func (d *Drain) Requested() bool {
	select {
	case <-d.req:
		return true
	default:
		return false
	}
}

// Expire abandons in-flight jobs: the worker pool stops waiting for them
// and marks them skipped. Expire implies Request. Idempotent.
func (d *Drain) Expire() {
	d.Request()
	d.expOnce.Do(func() { close(d.exp) })
}

// expired returns a channel closed once the drain deadline has passed.
// A nil Drain never expires (the returned nil channel blocks forever).
func (d *Drain) expired() <-chan struct{} {
	if d == nil {
		return nil
	}
	return d.exp
}

// faultRule is one parsed FaultSpec directive.
type faultRule struct {
	kind   string // "panic", "corrupt", "hang"
	substr string // matched against the job key "cfgLabel|mixName"
}

// faultPlan is a compiled FaultSpec.
type faultPlan struct {
	rules      []faultRule
	drainAfter int // request a drain after this many completed jobs (0 = never)
}

// faultHangGate, when non-nil, makes "hang:" faults block: the faulted
// attempt announces itself on arrived, then waits on release. Tests use
// the rendezvous to hold a job in flight deterministically (receive from
// arrived, then expire the drain, then close release); in production the
// gate is nil and hang faults are inert.
var faultHangGate *hangGate

// hangGate is the two-phase rendezvous behind "hang:" faults.
type hangGate struct {
	arrived chan struct{}
	release chan struct{}
}

// compileFaultSpec parses spec into an executable plan (nil for "").
func compileFaultSpec(spec string) (*faultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := &faultPlan{}
	for _, dir := range strings.Split(spec, ";") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		kind, arg, ok := strings.Cut(dir, ":")
		if !ok {
			return nil, fmt.Errorf("faultspec: %q: want KIND:ARG", dir)
		}
		if strings.Contains(arg, "@") {
			// No job key contains "@", so such an argument would
			// silently match no job.
			return nil, fmt.Errorf("faultspec: %q: \"@\" is not part of the grammar", dir)
		}
		switch kind {
		case "panic", "corrupt", "hang":
			if arg == "" {
				return nil, fmt.Errorf("faultspec: %q: empty job substring", dir)
			}
			plan.rules = append(plan.rules, faultRule{kind: kind, substr: arg})
		case "drain-after":
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultspec: %q: job count must be a positive integer", dir)
			}
			plan.drainAfter = n
		default:
			return nil, fmt.Errorf("faultspec: unknown directive kind %q", kind)
		}
	}
	return plan, nil
}

// beforeAttempt runs the panic/hang faults that apply to the job
// identified by key. Called from inside the recovered attempt, so an
// injected panic follows the same path as a genuine simulator bug.
func (p *faultPlan) beforeAttempt(key string) {
	if p == nil {
		return
	}
	for _, r := range p.rules {
		if !strings.Contains(key, r.substr) {
			continue
		}
		switch r.kind {
		case "hang":
			if g := faultHangGate; g != nil {
				g.arrived <- struct{}{}
				<-g.release
			}
		case "panic":
			panic("faultspec: injected panic for " + key)
		}
	}
}

// wantsCorrupt reports whether the job's result-store entry should be
// stored torn.
func (p *faultPlan) wantsCorrupt(key string) bool {
	if p == nil {
		return false
	}
	for _, r := range p.rules {
		if r.kind == "corrupt" && strings.Contains(key, r.substr) {
			return true
		}
	}
	return false
}
