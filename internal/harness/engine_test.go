package harness

import (
	"testing"
)

// TestResolveFigsCanonicalizes pins the canonical selection rules the
// job identity depends on: "all"/empty expand to every experiment,
// duplicates collapse, order is by ID, unknown IDs are errors.
func TestResolveFigsCanonicalizes(t *testing.T) {
	all, err := ResolveFigs(nil)
	if err != nil {
		t.Fatalf("ResolveFigs(nil): %v", err)
	}
	if len(all) != len(Experiments()) {
		t.Fatalf("ResolveFigs(nil) = %d experiments, want %d", len(all), len(Experiments()))
	}
	viaAll, err := ResolveFigs([]string{"fig8", "all"})
	if err != nil {
		t.Fatalf(`ResolveFigs("fig8","all"): %v`, err)
	}
	if len(viaAll) != len(all) {
		t.Fatalf(`"all" alongside an ID selected %d experiments, want %d`, len(viaAll), len(all))
	}

	got, err := ResolveFigs([]string{"fig9", "fig8", "fig9"})
	if err != nil {
		t.Fatalf("ResolveFigs: %v", err)
	}
	if len(got) != 2 || got[0].ID != "fig8" || got[1].ID != "fig9" {
		t.Fatalf("ResolveFigs(fig9,fig8,fig9) = %v, want [fig8 fig9]", got)
	}

	if _, err := ResolveFigs([]string{"fig99"}); err == nil {
		t.Fatal("ResolveFigs(fig99) did not fail")
	}
}

// TestIdentityKeyCanonical pins the dedupe contract: every spelling of
// the same (selection, result-affecting options) shares a key, and
// result-neutral options do not perturb it.
func TestIdentityKeyCanonical(t *testing.T) {
	opt := tinyOptions()
	base, err := Request{Figs: []string{"fig8"}, Options: opt}.IdentityKey()
	if err != nil {
		t.Fatalf("IdentityKey: %v", err)
	}
	if len(base) != 64 {
		t.Fatalf("IdentityKey length = %d, want 64 hex chars", len(base))
	}

	// Result-neutral knobs must normalize out.
	neutral := opt
	neutral.Parallelism = 7
	neutral.CacheDir = "/elsewhere"
	if k, _ := (Request{Figs: []string{"fig8"}, Options: neutral}).IdentityKey(); k != base {
		t.Fatal("result-neutral options changed the identity key")
	}

	// Result-affecting knobs must not.
	seeded := opt
	seeded.Seed++
	if k, _ := (Request{Figs: []string{"fig8"}, Options: seeded}).IdentityKey(); k == base {
		t.Fatal("changing the seed did not change the identity key")
	}

	// Selection spellings collapse.
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	allKey, _ := Request{Figs: []string{"all"}, Options: opt}.IdentityKey()
	listKey, _ := Request{Figs: ids, Options: opt}.IdentityKey()
	nilKey, _ := Request{Options: opt}.IdentityKey()
	if allKey != listKey || allKey != nilKey {
		t.Fatalf(`"all" (%s), the explicit list (%s) and nil (%s) disagree`, allKey, listKey, nilKey)
	}
	if allKey == base {
		t.Fatal("the full selection shares fig8's identity key")
	}

	if _, err := (Request{Figs: []string{"fig99"}, Options: opt}).IdentityKey(); err == nil {
		t.Fatal("IdentityKey accepted an unknown experiment")
	}
}

// TestContentIdentitiesPinned pins the three content identities. Each
// names data on disk — result-store entries, zivsimd job IDs, ledger
// headers — so an Options edit that shifts them orphans every existing
// store; such a change must be deliberate (and bump cacheVersion).
func TestContentIdentitiesPinned(t *testing.T) {
	id, err := Request{Figs: []string{"fig1"}, Options: DefaultOptions()}.IdentityKey()
	if err != nil {
		t.Fatal(err)
	}
	if want := "fa2342ecb355b3994f4dc33be70343263c7ca80a8992529d08e8ee6f64cc26af"; id != want {
		t.Errorf("IdentityKey = %s, want %s", id, want)
	}
	if got, want := DefaultOptions().IdentityHash(), "5d459f97c21cdfd79883ea1859fd6d16f751bc98c8244d979d18665bb28274cb"; got != want {
		t.Errorf("IdentityHash = %s, want %s", got, want)
	}
	j := cacheTestJob(cacheTestOptions(""))
	if want := "ca7439d5023d2709b579b6084a448e53a50148c38417dbb48dfb0dd816af92da"; j.dk != want {
		t.Errorf("diskKey = %s, want %s", j.dk, want)
	}
}

// TestIdentityHashNormalizesOptions: result-neutral options leave the
// options identity unchanged, and a result-affecting one changes it.
func TestIdentityHashNormalizesOptions(t *testing.T) {
	a := resilienceOptions()
	neutral := a
	neutral.Parallelism = 7
	neutral.CacheDir = "/elsewhere"
	neutral.FaultSpec = "drain-after:1"
	if a.IdentityHash() != neutral.IdentityHash() {
		t.Error("result-neutral options changed the options identity")
	}
	b := a
	b.Seed++
	if a.IdentityHash() == b.IdentityHash() {
		t.Fatal("changing Seed did not change the options identity")
	}
}

// TestRunSweepStreamsFigures checks the engine's streaming contract:
// OnFigure fires once per experiment in ID order, with the same tables
// the Report carries.
func TestRunSweepStreamsFigures(t *testing.T) {
	var streamed []string
	rep, err := RunSweep(Request{
		Figs:    []string{"fig9", "fig8"},
		Options: tinyOptions(),
		OnFigure: func(fr FigureResult) {
			streamed = append(streamed, fr.ID)
			if fr.Table == nil || fr.Err != "" {
				t.Errorf("figure %s streamed without a table (err %q)", fr.ID, fr.Err)
			}
		},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(streamed) != 2 || streamed[0] != "fig8" || streamed[1] != "fig9" {
		t.Fatalf("streamed order = %v, want [fig8 fig9]", streamed)
	}
	if len(rep.Figures) != 2 || rep.Figures[0].ID != "fig8" || rep.Figures[1].ID != "fig9" {
		t.Fatalf("report figures = %v", rep.Figures)
	}
	if rep.Drained || rep.Panics() != 0 {
		t.Fatalf("unexpected drain/panics: %+v", rep)
	}
	if rep.Status.Completed == 0 {
		t.Fatal("sweep status recorded no completed jobs")
	}

	if _, err := RunSweep(Request{Figs: []string{"nope"}}); err == nil {
		t.Fatal("RunSweep accepted an unknown experiment")
	}
}

// TestRunSweepDrainStopsEarly checks that a pre-requested drain yields a
// drained report with no figures: partial tables are never emitted.
func TestRunSweepDrainStopsEarly(t *testing.T) {
	opt := tinyOptions()
	opt.Drain = NewDrain()
	opt.Drain.Request()
	rep, err := RunSweep(Request{Figs: []string{"fig8"}, Options: opt})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if !rep.Drained {
		t.Fatal("report not marked drained")
	}
	if len(rep.Figures) != 0 {
		t.Fatalf("drained sweep emitted %d figures, want 0", len(rep.Figures))
	}
}

// TestSweepReportCountsOwnJobs: a sweep's report covers its own jobs
// only. A faulted fig1 sweep fails its three NI-LRU jobs; a clean fig2
// sweep under the same options afterwards must report none of them and
// exactly fig2's nine jobs.
func TestSweepReportCountsOwnJobs(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 64
	o.HeteroMixes = 1
	o.HomoMixes = 0
	o.Warmup = 200
	o.Measure = 800
	o.Parallelism = 1

	faulted := o
	faulted.FaultSpec = "panic:NI-LRU"
	if _, st := runFig(t, "fig1", faulted); len(st.Failed) != 3 {
		t.Fatalf("faulted fig1 sweep failed %d jobs, want 3", len(st.Failed))
	}
	_, st := runFig(t, "fig2", o)
	if len(st.Failed) != 0 || st.Completed != 9 {
		t.Fatalf("fig2 sweep after a faulted fig1: %d completed, failed %v; want 9 completed, none failed",
			st.Completed, st.Failed)
	}
}
