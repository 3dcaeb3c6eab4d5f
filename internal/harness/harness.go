// Package harness defines one experiment per figure of the paper's
// evaluation (Figs. 1-4 motivation, Figs. 8-19 results) and the machinery to
// run them: per-(configuration, mix) simulations with caching, a worker pool,
// and tabular output matching the rows/series the paper reports.
package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/dram"
	"zivsim/internal/energy"
	"zivsim/internal/hierarchy"
	"zivsim/internal/metrics"
	"zivsim/internal/obs"
	"zivsim/internal/telemetry"
	"zivsim/internal/trace"
	"zivsim/internal/workload"
)

// Options controls experiment scale. The defaults run every figure on a
// laptop in minutes; raise Mixes/Measure (and lower Scale) to approach the
// paper's full methodology.
type Options struct {
	// Scale divides every cache capacity (power of two; 1 = the paper's
	// full 8 MB-LLC machine). Capacity ratios — and therefore normalized
	// shapes — are scale-invariant.
	Scale int
	// Cores is the CMP size for multi-programmed experiments.
	Cores int
	// HeteroMixes sets how many heterogeneous mixes run (paper: 36).
	HeteroMixes int
	// HomoMixes sets how many homogeneous mixes run (paper: 36).
	HomoMixes int
	// Warmup is the per-core reference count simulated before measurement.
	Warmup int
	// Measure is the per-core reference count of the measured segment.
	Measure int
	// TPCECores is the core count of the TPC-E scalability experiment
	// (paper: 128).
	TPCECores int
	// Seed makes everything deterministic.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
	// CacheDir, when non-empty, names the result store: every finished
	// simulation is stored there (one JSON file per (options, config,
	// mix) key, see diskcache.go) and every job already stored is adopted
	// instead of run, across processes. Rerunning an interrupted or
	// partly failed sweep over the same CacheDir therefore resumes it.
	// Neither CacheDir nor Parallelism affects simulation results, so
	// both are excluded from cache keys.
	CacheDir string
	// Obs, when non-nil, attaches the observability layer to every
	// simulation and writes one artifact set per job under Obs.OutDir.
	// Observability never changes simulation results (the golden tests pin
	// that), so it is excluded from cache keys — but artifact production
	// needs real runs, so obs runs bypass the result-store read path.
	Obs *ObsOptions `json:"-"`
	// FaultSpec injects deterministic faults for testing the recovery,
	// store and drain machinery. Empty injects nothing; Validate rejects
	// a spec outside the grammar of semicolon-separated directives (no
	// argument may contain "@"):
	//
	//	panic:SUBSTR       panic in jobs whose "cfgLabel|mix" key
	//	                   contains SUBSTR
	//	corrupt:SUBSTR     store only the first half of the matching job's
	//	                   result-store entry (exercises the corruption-
	//	                   tolerant read path)
	//	hang:SUBSTR        block the matching job on an internal test gate
	//	                   (inert outside the test suite)
	//	drain-after:N      request a graceful drain once N jobs have
	//	                   completed (a deterministic, simulated SIGINT)
	//
	// Excluded from cache keys.
	FaultSpec string `json:"-"`
	// Drain, when non-nil, lets the caller request a graceful shutdown:
	// dispatching stops, in-flight jobs finish (or are abandoned once the
	// drain expires), and every undispatched job is marked skipped. The
	// CLI wires SIGINT/SIGTERM to it. Excluded from cache keys.
	Drain *Drain `json:"-"`
	// Telemetry, when non-nil, receives the sweep's job lifecycle, one
	// record per step, and feeds its outputs: metrics, the sweep
	// timeline, the run ledger, the progress line and an observer (see
	// internal/telemetry). It lives in the wall-clock domain and writes
	// only to its own outputs, never into results — the telemetry
	// invariance test pins that — so it is excluded from cache keys.
	Telemetry *telemetry.Sink `json:"-"`
}

// DefaultOptions returns laptop-scale settings.
func DefaultOptions() Options {
	return Options{
		Scale:       8,
		Cores:       8,
		HeteroMixes: 4,
		HomoMixes:   4,
		Warmup:      30_000,
		Measure:     120_000,
		TPCECores:   32,
		Seed:        20210614, // ISCA 2021
	}
}

// PaperOptions returns the paper-fidelity settings (slow: full-size machine,
// 36+36 mixes).
func PaperOptions() Options {
	o := DefaultOptions()
	o.Scale = 1
	o.HeteroMixes = 36
	o.HomoMixes = 36
	o.Warmup = 100_000
	o.Measure = 500_000
	o.TPCECores = 128
	return o
}

// Validate reports the first option value that cannot build a machine
// or run a sweep, or a FaultSpec outside its grammar. Every cache needs
// a power-of-two set count: the LLC has Cores×128/Scale sets per bank
// (TPCECores×32/Scale for TPC-E's 256 KB per core), and the L1 holds
// less than one set below 1/64 scale. A directory entry tracks at most
// directory.MaxCores cores, and a heterogeneous mix gives every core a
// distinct application, so it needs Cores no larger than the app list.
func (o Options) Validate() error {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	switch {
	case !pow2(o.Scale) || o.Scale > 64:
		return fmt.Errorf("scale must be a power of two in [1, 64], got %d", o.Scale)
	case !pow2(o.Cores) || o.Cores > directory.MaxCores:
		return fmt.Errorf("cores must be a power of two of at most %d, got %d", directory.MaxCores, o.Cores)
	case o.HeteroMixes > 0 && o.Cores > len(workload.Apps()):
		return fmt.Errorf("heterogeneous mixes need at most %d cores (one distinct app each), got %d",
			len(workload.Apps()), o.Cores)
	case !pow2(o.TPCECores) || o.TPCECores*32 < o.Scale || o.TPCECores > directory.MaxCores:
		return fmt.Errorf("TPC-E cores must be a power of two in [scale/32, %d], got %d at scale %d",
			directory.MaxCores, o.TPCECores, o.Scale)
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"measured references", o.Measure, 1},
		{"heterogeneous mixes", o.HeteroMixes, 0},
		{"homogeneous mixes", o.HomoMixes, 0},
		{"warm-up references", o.Warmup, 0},
		{"parallelism", o.Parallelism, 0},
	} {
		if f.v < f.min {
			return fmt.Errorf("%s must be >= %d, got %d", f.name, f.min, f.v)
		}
	}
	_, err := compileFaultSpec(o.FaultSpec)
	return err
}

// Result is everything one simulation produced.
type Result struct {
	Config hierarchy.Config    // the simulated machine configuration
	Cores  []metrics.CoreStats // per-core performance counters
	LLC    core.Stats          // shared last-level cache counters
	Dir    directory.Stats     // sparse-directory counters
	Mem    dram.Stats          // DRAM controller counters

	TotalInstr   uint64  // instructions retired, summed over cores
	RelocEPI     float64 // pJ/instruction spent on relocation + widened directory
	RelocSkew    float64 // max/mean relocation-target load across sets
	TotalL2Miss  uint64  // L2 misses, summed over cores
	TotalLLCMiss uint64  // LLC misses, summed over cores
	TotalIncl    uint64  // back-invalidation inclusion victims
	TotalDirIncl uint64  // directory-induced inclusion victims
}

// runOne simulates one (config, generators) pair. o, when non-nil, is
// attached as the machine's observability layer for the run.
func runOne(cfg hierarchy.Config, gens []trace.Generator, warmup, measure int, o *obs.Observer) Result {
	m := hierarchy.New(cfg, gens, warmup, measure)
	if o != nil {
		m.SetObserver(o)
	}
	m.Run()
	simulatedRefs.Add(uint64(len(gens)) * uint64(warmup+measure))
	cores := m.CoreStats()
	r := Result{
		Config: cfg,
		Cores:  cores,
		LLC:    m.LLC().Stats,
		Dir:    m.Directory().Stats,
		Mem:    m.Memory().Stats,
	}
	for _, cs := range cores {
		r.TotalInstr += cs.Instructions
		r.TotalL2Miss += cs.L2Misses
		r.TotalLLCMiss += cs.LLCMisses
		r.TotalIncl += cs.InclusionVictims
		r.TotalDirIncl += cs.DirInclusionVictims
	}
	r.RelocEPI = m.Meter().EventEPI(energy.Relocation, r.TotalInstr) +
		m.Meter().EventEPI(energy.DirWideExtra, r.TotalInstr)
	r.RelocSkew = m.LLC().RelocTargetSkew()
	return r
}

// job identifies one simulation in a figure's matrix. Every figure's
// jobs share this shape: a multi-programmed job runs a mix, a
// multi-threaded one a workload (its mix then names the workload).
type job struct {
	cfgLabel string
	cfg      hierarchy.Config
	mix      workload.Mix
	// baseL2 is the L2 size (bytes, scaled) the workload anchors its
	// footprints to (workload.Params.BaseL2Bytes); part of the store key.
	baseL2 int
	// gens builds the job's per-core generators from its workload
	// parameters and the seed.
	gens func(workload.Params, uint64) []trace.Generator
	// dk is the job's content-addressed store key (diskKey), computed
	// once by runAll when the store or telemetry needs it; empty
	// otherwise.
	dk string
}

// runner executes one sweep's jobs with bounded parallelism. RunSweep
// builds one per request and runs every selected experiment against
// it, so experiments that overlap in their configuration matrices (e.g.
// Figs. 3/4, Figs. 8/9/10) share simulations; reuse across sweeps comes
// only from the result store.
type runner struct {
	opt  Options
	plan *faultPlan // opt.FaultSpec compiled; nil injects nothing
	mu   sync.Mutex
	// jobs records every job the sweep has settled, by key. A settled
	// job is final: a later runAll over an overlapping matrix reuses its
	// record, so each job runs at most once per sweep (recovery is a
	// rerun over the result store).
	//ziv:guards(mu)
	jobs map[string]jobRecord
	// completedRuns counts the sweep's real simulations (adoptions
	// excluded); the drain-after fault keys off it.
	//ziv:guards(mu)
	completedRuns int
}

// jobRecord is one job's outcome within a sweep.
type jobRecord struct {
	j job
	// outcome is telemetry.OutcomeDone (simulated), OutcomeCacheHit
	// (adopted from the store), OutcomeFailed or OutcomeSkipped (a drain
	// prevented it).
	outcome string
	// res is the job's Result; for a failed or skipped job, the
	// zero-shaped placeholder that keeps table rendering total.
	res Result
	// failure is the diagnostic of a failed job.
	failure FailedJob
	// artifacts lists the observability artifacts written for the job.
	artifacts []string
}

// newRunner returns an empty runner for one sweep under opt.
func newRunner(opt Options) *runner {
	// RunSweep validated opt, so the spec compiles.
	plan, _ := compileFaultSpec(opt.FaultSpec)
	return &runner{opt: opt, plan: plan, jobs: make(map[string]jobRecord)}
}

// normalized zeroes the Options fields that do not affect simulation
// results; the remainder is the content identity of store entries and
// sweep requests.
func (o Options) normalized() Options {
	o.Parallelism = 0
	o.CacheDir = ""
	o.Obs = nil
	o.FaultSpec = ""
	o.Drain = nil
	o.Telemetry = nil
	return o
}

// simulatedRefs counts memory references simulated by runOne across the
// process lifetime (warmup + measurement, all cores). Benchmarks divide it
// by wall time for a work-normalized refs/sec metric.
var simulatedRefs atomic.Uint64

// SimulatedRefs returns the total memory references simulated so far.
func SimulatedRefs() uint64 { return simulatedRefs.Load() }

func (r *runner) key(cfgLabel, mixName string) string { return cfgLabel + "|" + mixName }

// params derives the workload scaling parameters for a machine config.
func paramsFor(cfg hierarchy.Config, baseL2 int) workload.Params {
	return workload.Params{
		L2Bytes:       uint64(cfg.L2Bytes),
		LLCShareBytes: uint64(cfg.LLCBytes / cfg.Cores),
		BaseL2Bytes:   uint64(baseL2),
	}
}

// nominalRefs is the references job j simulates: warmup plus
// measurement on each of its cores. It sizes the job for the
// longest-first schedule and weights the progress ETA.
func (r *runner) nominalRefs(j job) uint64 {
	return uint64(j.cfg.Cores) * uint64(r.opt.Warmup+r.opt.Measure)
}

// runAll executes every job (cached by (config label, mix)) in parallel.
// Jobs are sorted longest-first so the schedule's tail holds the short
// jobs — a long job dispatched last would serialize behind the whole batch.
// A fixed pool of Parallelism workers drains the sorted list in order,
// which keeps the dispatch sequence deterministic (results are keyed, so
// completion order never affects output).
//
// The pool is fault-isolated: a panic inside one simulation is recovered
// and recorded as a FailedJob — the rest of the sweep is unaffected. Only
// jobs the sweep has not settled yet are queued. Completed jobs are
// stored (when CacheDir is set) as they finish, and a requested Drain
// stops dispatch, waits for in-flight jobs until the drain expires, and
// marks everything left as skipped.
func (r *runner) runAll(jobs []job) {
	drain := r.opt.Drain
	todo := make([]job, 0, len(jobs))
	seen := map[string]bool{}
	for _, j := range jobs {
		k := r.key(j.cfgLabel, j.mix.Name)
		if seen[k] {
			continue
		}
		seen[k] = true
		r.mu.Lock()
		_, settled := r.jobs[k]
		r.mu.Unlock()
		if !settled {
			todo = append(todo, j)
		}
	}
	if r.opt.CacheDir != "" || r.opt.Telemetry != nil {
		for i := range todo {
			todo[i].dk = r.diskKey(todo[i])
		}
	}
	// A sweep that is already draining runs nothing further: later
	// experiments after an interrupt park their whole matrix as skipped.
	if drain != nil && drain.Requested() {
		r.markSkipped(todo)
		return
	}
	for _, j := range todo {
		r.report(j, telemetry.SimQueued, "", r.nominalRefs(j), "")
	}
	// Store adoption. Observability artifacts come from real runs, so
	// obs runs skip the read path (stores still happen: results stay
	// valid).
	if r.opt.CacheDir != "" && r.opt.Obs == nil {
		rest := todo[:0]
		for _, j := range todo {
			if res, ok := r.diskLoad(j.dk); ok {
				r.adopt(j, res)
				continue
			}
			rest = append(rest, j)
		}
		todo = rest
	}
	sort.SliceStable(todo, func(i, k int) bool {
		ci, ck := r.nominalRefs(todo[i]), r.nominalRefs(todo[k])
		if ci != ck {
			return ci > ck
		}
		return r.key(todo[i].cfgLabel, todo[i].mix.Name) < r.key(todo[k].cfgLabel, todo[k].mix.Name)
	})
	par := r.opt.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(todo) {
		par = len(todo)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if drain != nil && drain.Requested() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				r.runJob(todo[i])
			}
		}()
	}
	if drain == nil {
		wg.Wait()
	} else {
		// Wait for the pool, but stop waiting once a requested drain
		// expires: in-flight jobs are abandoned (their goroutines finish
		// or die with the process) and reported as skipped.
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-drain.expired():
		}
	}
	if drain != nil && drain.Requested() {
		r.markSkipped(todo)
	}
	r.flushObsManifest()
}

// runJob runs one job once, to completion, failure, or abandonment.
func (r *runner) runJob(j job) {
	k := r.key(j.cfgLabel, j.mix.Name)
	r.report(j, telemetry.SimAttemptStart, "", 0, "")
	res, o, failure := r.attemptJob(j)
	if failure != nil {
		r.report(j, telemetry.SimAttemptEnd, telemetry.OutcomeFailed, 0, failure.Err)
		r.mu.Lock()
		r.jobs[k] = jobRecord{j: j, outcome: telemetry.OutcomeFailed, res: placeholderResult(j), failure: *failure}
		r.mu.Unlock()
		return
	}
	r.report(j, telemetry.SimAttemptEnd, telemetry.OutcomeDone, r.nominalRefs(j), "")
	var artifacts []string
	if o != nil {
		artifacts = r.exportObs(j, o)
	}
	r.mu.Lock()
	r.jobs[k] = jobRecord{j: j, outcome: telemetry.OutcomeDone, res: res, artifacts: artifacts}
	r.completedRuns++
	n := r.completedRuns
	r.mu.Unlock()
	if r.opt.CacheDir != "" {
		r.diskStore(j, res, r.plan.wantsCorrupt(k))
	}
	if p := r.plan; p != nil && p.drainAfter > 0 && n == p.drainAfter && r.opt.Drain != nil {
		r.opt.Drain.Request()
	}
}

// attemptJob performs a job's one recovered attempt. A panic — the
// simulator's invariant checks panic by design, and FaultSpec injects
// panics on the same path — becomes a FailedJob carrying the stack.
func (r *runner) attemptJob(j job) (res Result, o *obs.Observer, failure *FailedJob) {
	defer func() {
		if p := recover(); p != nil {
			failure = &FailedJob{
				CfgLabel: j.cfgLabel,
				Mix:      j.mix.Name,
				Seed:     r.opt.Seed,
				Err:      fmt.Sprint(p),
				Stack:    string(debug.Stack()),
			}
			o = nil
		}
	}()
	r.plan.beforeAttempt(r.key(j.cfgLabel, j.mix.Name))
	gens := j.gens(paramsFor(j.cfg, j.baseL2), r.opt.Seed)
	if oo := r.opt.Obs; oo != nil {
		o = obs.New(j.cfg.Cores, j.cfg.LLCBanks, obs.Config{
			IntervalCycles: oo.IntervalCycles,
			MaxIntervals:   obsMaxIntervals,
			EventCapacity:  obsEvents,
		})
	}
	res = runOne(j.cfg, gens, r.opt.Warmup, r.opt.Measure, o)
	return res, o, nil
}

// adopt installs a store-served Result and reports the adoption.
func (r *runner) adopt(j job, res Result) {
	r.mu.Lock()
	r.jobs[r.key(j.cfgLabel, j.mix.Name)] = jobRecord{j: j, outcome: telemetry.OutcomeCacheHit, res: res}
	r.mu.Unlock()
	r.report(j, telemetry.SimAdopted, telemetry.OutcomeCacheHit, 0, "")
}

// report hands one lifecycle step of job j to the telemetry sink as a
// record.
func (r *runner) report(j job, typ, outcome string, refs uint64, errMsg string) {
	if r.opt.Telemetry == nil {
		return
	}
	r.opt.Telemetry.Report(telemetry.Record{Type: typ, Sim: r.key(j.cfgLabel, j.mix.Name),
		Key: j.dk, Cfg: j.cfgLabel, Mix: j.mix.Name, Outcome: outcome, Refs: refs, Err: errMsg})
}

// markSkipped records every job of the slice that has no record yet as
// skipped by the drain, with a placeholder result so table rendering
// stays total. The skips are reported outside the critical section (the
// telemetry sink takes its own locks).
func (r *runner) markSkipped(jobs []job) {
	var skipped []job
	r.mu.Lock()
	for _, j := range jobs {
		k := r.key(j.cfgLabel, j.mix.Name)
		if _, ok := r.jobs[k]; ok {
			continue // already settled
		}
		r.jobs[k] = jobRecord{j: j, outcome: telemetry.OutcomeSkipped, res: placeholderResult(j)}
		skipped = append(skipped, j)
	}
	r.mu.Unlock()
	for _, j := range skipped {
		r.report(j, telemetry.SimSkipped, telemetry.OutcomeSkipped, 0, "")
	}
}

// placeholderResult is the zero-valued stand-in stored for failed and
// skipped jobs: core-count-shaped so metric helpers (which insist on
// matching core counts) render zeros instead of panicking.
func placeholderResult(j job) Result {
	return Result{Config: j.cfg, Cores: make([]metrics.CoreStats, j.cfg.Cores)}
}

// get returns a completed result, or the zero-shaped placeholder for a
// job that failed or was skipped by a drain (the status reports which).
// A key the sweep never scheduled is still a programming error.
func (r *runner) get(cfgLabel, mixName string) Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.jobs[r.key(cfgLabel, mixName)]
	if !ok {
		panic(fmt.Sprintf("harness: missing result for %s on %s", cfgLabel, mixName))
	}
	return rec.res
}

// SweepStatus summarizes the job-level outcomes of one sweep (all its
// experiments share a runner, so this is the whole `-fig all` picture).
type SweepStatus struct {
	// Completed counts jobs with a real Result, whether simulated by the
	// sweep or adopted from the result store.
	Completed int `json:"completed"`
	// CacheHits counts jobs adopted from the result store (CacheDir).
	CacheHits int `json:"cache_hits"`
	// Failed lists jobs whose simulation panicked, sorted by (config
	// label, mix).
	Failed []FailedJob `json:"failed,omitempty"`
	// Skipped lists the "cfgLabel|mix" keys a drain prevented from
	// running, sorted.
	Skipped []string `json:"skipped,omitempty"`
}

// status summarizes the jobs the sweep has settled so far.
func (r *runner) status() SweepStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.jobs))
	for k := range r.jobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var st SweepStatus
	for _, k := range keys {
		switch rec := r.jobs[k]; rec.outcome {
		case telemetry.OutcomeCacheHit:
			st.CacheHits++
			st.Completed++
		case telemetry.OutcomeDone:
			st.Completed++
		case telemetry.OutcomeFailed:
			st.Failed = append(st.Failed, rec.failure)
		case telemetry.OutcomeSkipped:
			st.Skipped = append(st.Skipped, k)
		}
	}
	return st
}

// mixes picks the experiment's workload mixes per the options.
func (o Options) mixes() []workload.Mix {
	var out []workload.Mix
	homo := workload.HomogeneousMixes(o.Cores)
	// Spread homogeneous picks across behaviour families.
	if o.HomoMixes >= len(homo) {
		out = append(out, homo...)
	} else {
		stride := len(homo) / max(o.HomoMixes, 1)
		for i := 0; i < o.HomoMixes; i++ {
			out = append(out, homo[i*stride])
		}
	}
	out = append(out, workload.HeterogeneousMixes(o.Cores, o.HeteroMixes, o.Seed)...)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table is a rendered experiment result.
type Table struct {
	Title   string   `json:"title"`           // heading printed above the table
	Columns []string `json:"columns"`         // column headers, one per value in each row
	Rows    []Row    `json:"rows"`            // labeled data series
	Notes   []string `json:"notes,omitempty"` // free-form footnotes appended after the rows
}

// Row is one labeled series of values.
type Row struct {
	Label  string    `json:"label"`  // series name, printed in the first column
	Values []float64 `json:"values"` // one value per Table column
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	width := 24
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width+2, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%12.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteString("," + c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one reproducible figure. RunSweep runs it.
type Experiment struct {
	ID    string               // stable identifier ("fig8"), the -fig selector
	Title string               // human-readable figure title
	run   func(*runner) *Table // computes the figure on the sweep's runner
}

var experiments []Experiment

func register(e Experiment) { experiments = append(experiments, e) }

// Experiments lists all registered figures in id order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), experiments...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
