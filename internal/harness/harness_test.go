package harness

import (
	"strings"
	"testing"

	"zivsim/internal/hierarchy"
	"zivsim/internal/workload"
)

// tinyOptions keeps harness tests fast: a 1/64-scale machine, two mixes,
// short segments.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Scale = 64
	o.HeteroMixes = 1
	o.HomoMixes = 1
	o.Warmup = 2000
	o.Measure = 8000
	o.TPCECores = 8
	return o
}

// runFigs runs the experiments ids as one sweep under o and returns
// each figure's table by ID (a figure a drain cut short has none) and
// the sweep's status.
func runFigs(t testing.TB, o Options, ids ...string) (map[string]*Table, SweepStatus) {
	t.Helper()
	rep, err := RunSweep(Request{Figs: ids, Options: o})
	if err != nil {
		t.Fatalf("RunSweep(%v): %v", ids, err)
	}
	return tablesOf(t, rep), rep.Status
}

// tablesOf maps each figure of a sweep report to its table, failing the
// test on an experiment that panicked.
func tablesOf(t testing.TB, rep *Report) map[string]*Table {
	t.Helper()
	tabs := map[string]*Table{}
	for _, fr := range rep.Figures {
		if fr.Err != "" {
			t.Fatalf("%s panicked: %s", fr.ID, fr.Err)
		}
		tabs[fr.ID] = fr.Table
	}
	return tabs
}

// runFig runs experiment id alone as one sweep under o and returns its
// table (nil when a drain cut it short) and the sweep's status.
func runFig(t testing.TB, id string, o Options) (*Table, SweepStatus) {
	t.Helper()
	tabs, st := runFigs(t, o, id)
	return tabs[id], st
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{"ext1", "ext2", "ext3", "fig1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig2", "fig3", "fig4", "fig8", "fig9"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiment count = %d, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("fig8"); !ok {
		t.Error("ByID(fig8) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

// TestNoMachineSimulatedTwice enumerates the jobs of every experiment,
// on one runner as a -fig all sweep does and on a fresh runner each,
// with a drain already requested so that each job is recorded as
// skipped instead of simulated. The runner deduplicates by job key, so
// a machine (configuration, mix and base L2) under two keys would be
// simulated twice, and a key that names two machines would hand one
// figure another figure's result.
func TestNoMachineSimulatedTwice(t *testing.T) {
	o := tinyOptions()
	o.Drain = NewDrain()
	o.Drain.Request()
	machineOf := map[string]string{} // job key -> machine
	keyOf := map[string]string{}     // machine -> job key
	record := func(r *runner) {
		for k, rec := range r.jobs {
			m := contentHash(struct {
				Config hierarchy.Config
				Mix    workload.Mix
				BaseL2 int
			}{rec.j.cfg, rec.j.mix, rec.j.baseL2})
			if prev, ok := machineOf[k]; ok && prev != m {
				t.Errorf("job key %s names two machines", k)
			}
			if prev, ok := keyOf[m]; ok && prev != k {
				t.Errorf("job keys %s and %s name the same machine", prev, k)
			}
			machineOf[k], keyOf[m] = m, k
		}
	}
	shared := newRunner(o)
	for _, e := range Experiments() {
		own := newRunner(o)
		e.run(own)
		record(own)
		e.run(shared)
	}
	record(shared)
	if len(shared.jobs) != len(keyOf) {
		t.Errorf("the sweep holds %d jobs for %d machines", len(shared.jobs), len(keyOf))
	}
}

func TestFig1Shape(t *testing.T) {
	tab, _ := runFig(t, "fig1", tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("fig1 rows = %d, want 4", len(tab.Rows))
	}
	if len(tab.Columns) != 3 {
		t.Fatalf("fig1 columns = %d, want 3", len(tab.Columns))
	}
	// The baseline row at 256KB must be ~1.0 by construction.
	for _, r := range tab.Rows {
		if r.Label == "I-LRU" {
			if r.Values[0] < 0.99 || r.Values[0] > 1.01 {
				t.Errorf("I-LRU@256KB speedup = %v, want 1.0", r.Values[0])
			}
		}
		for _, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s has non-positive speedup %v", r.Label, v)
			}
		}
	}
}

func TestFig2ZIVFreeInclusionVictims(t *testing.T) {
	// Not fig2 itself, but the core claim: ZIV rows in fig8's matrix must
	// have zero inclusion victims. Run the ZIV spec directly.
	r := newRunner(tinyOptions())
	s := spec{family: lruFamilyByName("ZIV-NotInPrC"), label: "ziv", l2: kb256}
	mixes := sweepMatrix(r, []spec{s})
	for _, mix := range mixes {
		res := r.get("ziv", mix.Name)
		if res.TotalIncl != 0 {
			t.Fatalf("ZIV produced %d inclusion victims on %s", res.TotalIncl, mix.Name)
		}
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "row1", Values: []float64{1.5, 2.5}}},
		Notes:   []string{"a note"},
	}
	txt := tab.Format()
	if !strings.Contains(txt, "test") || !strings.Contains(txt, "row1") || !strings.Contains(txt, "1.5") || !strings.Contains(txt, "a note") {
		t.Errorf("Format output missing content:\n%s", txt)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "label,a,b\n") || !strings.Contains(csv, "row1,1.5,2.5") {
		t.Errorf("CSV output wrong:\n%s", csv)
	}
}

func TestOptionsMixes(t *testing.T) {
	o := tinyOptions()
	mixes := o.mixes()
	if len(mixes) != o.HomoMixes+o.HeteroMixes {
		t.Fatalf("mixes = %d, want %d", len(mixes), o.HomoMixes+o.HeteroMixes)
	}
	o.HomoMixes = 100 // more than available: clamps to all 36
	if got := len(o.mixes()); got != 36+o.HeteroMixes {
		t.Fatalf("clamped mixes = %d, want %d", got, 36+o.HeteroMixes)
	}
}

func TestPaperOptions(t *testing.T) {
	o := PaperOptions()
	if o.Scale != 1 || o.HeteroMixes != 36 || o.HomoMixes != 36 || o.TPCECores != 128 {
		t.Errorf("PaperOptions = %+v", o)
	}
}

// TestOptionsValidate pins the machine-geometry boundaries, probed on
// the simulator: every LLC bank needs Cores×128/Scale (TPC-E:
// TPCECores×32/Scale) sets, a positive power of two, and the L1 needs
// Scale <= 64.
func TestOptionsValidate(t *testing.T) {
	for _, c := range []struct {
		name  string
		edit  func(*Options)
		valid bool
	}{
		{"defaults", func(*Options) {}, true},
		{"paper", func(o *Options) { *o = PaperOptions() }, true},
		{"scale 64, cores 1", func(o *Options) { o.Scale, o.Cores = 64, 1 }, true},
		{"scale 64, cores 4, tpce 32", func(o *Options) { o.Scale, o.Cores, o.TPCECores = 64, 4, 32 }, true},
		{"scale 128", func(o *Options) { o.Scale = 128 }, false},
		{"scale 3", func(o *Options) { o.Scale = 3 }, false},
		{"scale 0", func(o *Options) { o.Scale = 0 }, false},
		{"cores 6", func(o *Options) { o.Cores = 6 }, false},
		{"cores 256, no hetero mixes", func(o *Options) { o.Cores, o.HeteroMixes = 256, 0 }, true},
		{"cores 512, no hetero mixes", func(o *Options) { o.Cores, o.HeteroMixes = 512, 0 }, false},
		{"cores 32, hetero mixes", func(o *Options) { o.Cores, o.HeteroMixes = 32, 1 }, true},
		{"cores 32, no hetero mixes", func(o *Options) { o.Cores, o.HeteroMixes = 32, 0 }, true},
		{"cores 64, hetero mixes", func(o *Options) { o.Cores, o.HeteroMixes = 64, 1 }, false},
		{"cores 64, no hetero mixes", func(o *Options) { o.Cores, o.HeteroMixes = 64, 0 }, true},
		{"tpce cores 12", func(o *Options) { o.TPCECores = 12 }, false},
		{"tpce cores 256", func(o *Options) { o.TPCECores = 256 }, true},
		{"tpce cores 512", func(o *Options) { o.TPCECores = 512 }, false},
		{"tpce cores 1 at scale 64", func(o *Options) { o.Scale, o.TPCECores = 64, 1 }, false},
		{"tpce cores 1 at scale 32", func(o *Options) { o.Scale, o.TPCECores = 32, 1 }, true},
		{"measure 0", func(o *Options) { o.Measure = 0 }, false},
		{"warmup -1", func(o *Options) { o.Warmup = -1 }, false},
		{"parallelism -1", func(o *Options) { o.Parallelism = -1 }, false},
	} {
		o := DefaultOptions()
		c.edit(&o)
		if err := o.Validate(); (err == nil) != c.valid {
			t.Errorf("%s: Validate() = %v, want valid=%v", c.name, err, c.valid)
		}
	}
	if _, err := RunSweep(Request{Figs: []string{"fig1"}, Options: Options{Scale: 3}}); err == nil {
		t.Error("RunSweep accepted scale 3")
	}
}

func TestExt1OracleRuns(t *testing.T) {
	tab, _ := runFig(t, "ext1", tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("ext1 rows = %d, want 4", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s has non-positive speedup %v", r.Label, v)
			}
		}
	}
}

func TestExt3SRRIPZeroVictims(t *testing.T) {
	tab, _ := runFig(t, "ext3", tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("ext3 rows = %d, want 4", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s has non-positive speedup %v", r.Label, v)
			}
		}
	}
}

func TestExt2AblationSkew(t *testing.T) {
	tab, _ := runFig(t, "ext2", tinyOptions())
	if len(tab.Rows) != 2 {
		t.Fatalf("ext2 rows = %d, want 2", len(tab.Rows))
	}
	var rr, lowest float64
	for _, r := range tab.Rows {
		switch r.Label {
		case "ZIV-RoundRobin":
			rr = r.Values[1]
		case "ZIV-LowestIndex":
			lowest = r.Values[1]
		}
	}
	if rr == 0 || lowest == 0 {
		t.Skip("no relocations at this scale")
	}
	if lowest < rr {
		t.Errorf("lowest-index skew (%v) below round-robin (%v): fairness ablation inverted", lowest, rr)
	}
}

func TestFig14Shape(t *testing.T) {
	tab, _ := runFig(t, "fig14", tinyOptions())
	if len(tab.Rows) != 13 {
		t.Fatalf("fig14 rows = %d, want 13", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != 1 || r.Values[0] <= 0 {
			t.Errorf("row %s: bad values %v", r.Label, r.Values)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	tab, _ := runFig(t, "fig15", tinyOptions())
	if len(tab.Rows) != 6 { // 3 families x {MESI, ZeroDEV}
		t.Fatalf("fig15 rows = %d, want 6", len(tab.Rows))
	}
	if len(tab.Columns) != 4 {
		t.Fatalf("fig15 columns = %d, want 4 directory sizes", len(tab.Columns))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s has non-positive speedup", r.Label)
			}
		}
	}
}

// TestFig16And17Shape checks Figs. 16-17 of the golden sweep.
func TestFig16And17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	rep, _ := goldenSweep()
	tabs := tablesOf(t, rep)
	for _, id := range []string{"fig16", "fig17"} {
		tab := tabs[id]
		if len(tab.Rows) != 5 {
			t.Fatalf("%s rows = %d, want 5 MT workloads", id, len(tab.Rows))
		}
		if len(tab.Columns) != 6 {
			t.Fatalf("%s columns = %d, want 6 designs", id, len(tab.Columns))
		}
		for _, r := range tab.Rows {
			for i, v := range r.Values {
				if v <= 0 {
					t.Errorf("%s %s/%s: non-positive ratio %v", id, r.Label, tab.Columns[i], v)
				}
			}
		}
	}
}

func TestFig18CDF(t *testing.T) {
	tab, _ := runFig(t, "fig18", tinyOptions())
	if len(tab.Columns) != 3 {
		t.Fatalf("fig18 columns = %d, want 3 designs", len(tab.Columns))
	}
	// Each column must be a monotone CDF ending at ~1 (if any relocations).
	for c := 0; c < 3; c++ {
		prev := 0.0
		for _, r := range tab.Rows {
			v := r.Values[c]
			if v < prev-1e-9 {
				t.Fatalf("fig18 column %d not monotone at %s", c, r.Label)
			}
			prev = v
		}
		if len(tab.Rows) > 0 {
			last := tab.Rows[len(tab.Rows)-1].Values[c]
			if last != 0 && (last < 0.999 || last > 1.001) {
				t.Errorf("fig18 column %d CDF ends at %v", c, last)
			}
		}
	}
}

func TestFig19EPIGrowsWithL2(t *testing.T) {
	tab, _ := runFig(t, "fig19", tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("fig19 rows = %d, want 4 designs", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v < 0 {
				t.Errorf("negative EPI in row %s", r.Label)
			}
		}
	}
}

func TestFig9PerMix(t *testing.T) {
	o := tinyOptions()
	tab, _ := runFig(t, "fig9", o)
	// One row per mix plus the geomean row.
	if len(tab.Rows) != o.HomoMixes+o.HeteroMixes+1 {
		t.Fatalf("fig9 rows = %d, want %d", len(tab.Rows), o.HomoMixes+o.HeteroMixes+1)
	}
	if tab.Rows[len(tab.Rows)-1].Label != "geomean" {
		t.Error("fig9 missing geomean row")
	}
}

// TestRunnerCacheSharing: experiments of one sweep share its runner,
// so Figs. 8, 9 and 10, whose matrices overlap, simulate each (config,
// mix) job once: Fig. 8's 24 configurations on one mix.
func TestRunnerCacheSharing(t *testing.T) {
	o := cacheTestOptions("")
	refsBefore := SimulatedRefs()
	_, st := runFigs(t, o, "fig8", "fig9", "fig10")
	if st.Completed != 24 {
		t.Fatalf("sweep completed %d jobs, want 24", st.Completed)
	}
	oneJob := uint64(o.Cores) * uint64(o.Warmup+o.Measure)
	if got := SimulatedRefs() - refsBefore; got != 24*oneJob {
		t.Errorf("sweep simulated %d refs, want %d (each of the 24 jobs once)", got, 24*oneJob)
	}
}
