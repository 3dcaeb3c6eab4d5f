package harness

import (
	"fmt"

	"zivsim/internal/core"
	"zivsim/internal/hierarchy"
	"zivsim/internal/metrics"
	"zivsim/internal/trace"
	"zivsim/internal/workload"
)

// spec identifies one machine configuration of an experiment matrix: a
// family's design on one machine geometry.
type spec struct {
	family
	label        string
	l2           int     // bytes, unscaled
	cores        int     // 0 = Options.Cores
	llcBytes     int     // 0 = default
	dirFactor    float64 // 0 = 2.0
	zeroDEV      bool
	selectLowest bool
}

func (s spec) config(o Options) hierarchy.Config {
	cores := o.Cores
	if s.cores > 0 {
		cores = s.cores
	}
	cfg := hierarchy.DefaultConfig(cores, s.l2, o.Scale)
	if s.llcBytes > 0 {
		cfg.LLCBytes = s.llcBytes / o.Scale
	}
	cfg.Mode = s.mode
	cfg.Policy = s.pol
	cfg.Scheme = s.scheme
	cfg.Property = s.prop
	if s.dirFactor > 0 {
		cfg.DirFactor = s.dirFactor
	}
	cfg.ZeroDEV = s.zeroDEV
	cfg.SelectLowest = s.selectLowest
	return cfg
}

const (
	kb256 = 256 << 10
	kb512 = 512 << 10
	kb768 = 768 << 10
	mb1   = 1 << 20
)

var l2Sweep = []int{kb256, kb512, kb768}

func l2Label(b int) string { return fmt.Sprintf("%dKB", b>>10) }

// baselineSpec is the normalization anchor of Figs. 1-14: inclusive LLC,
// LRU, 256 KB L2.
func baselineSpec() spec {
	return spec{family: famILRU, label: "I-LRU-256KB", l2: kb256}
}

// mixJob is the job that runs spec s on a multi-programmed mix, whose
// footprints anchor to the 256 KB L2 of the study.
func mixJob(o Options, s spec, mix workload.Mix) job {
	return job{cfgLabel: s.label, cfg: s.config(o), mix: mix, baseL2: kb256 / o.Scale,
		gens: func(p workload.Params, seed uint64) []trace.Generator { return workload.BuildMix(mix, p, seed) }}
}

// sweepMatrix runs a set of (config family x L2 size) specs over the
// options' mixes, plus the baseline, on the sweep's runner and returns
// the mixes.
func sweepMatrix(r *runner, specs []spec) []workload.Mix {
	mixes := r.opt.mixes()
	var jobs []job
	for _, s := range append([]spec{baselineSpec()}, specs...) {
		for _, mix := range mixes {
			jobs = append(jobs, mixJob(r.opt, s, mix))
		}
	}
	r.runAll(jobs)
	return mixes
}

// speedupRow computes geomean weighted speedup vs the baseline config across
// mixes, plus the min/max range.
func speedupRow(r *runner, mixes []workload.Mix, cfgLabel string) (gm, lo, hi float64) {
	var xs []float64
	for _, mix := range mixes {
		base := r.get(baselineSpec().label, mix.Name)
		res := r.get(cfgLabel, mix.Name)
		xs = append(xs, metrics.WeightedSpeedup(res.Cores, base.Cores))
	}
	lo, hi = metrics.MinMax(xs)
	return metrics.GeoMean(xs), lo, hi
}

// countRatio sums a counter over mixes and normalizes to the baseline sum.
func countRatio(r *runner, mixes []workload.Mix, cfgLabel string, pick func(Result) uint64) float64 {
	var cfgSum, baseSum uint64
	for _, mix := range mixes {
		cfgSum += pick(r.get(cfgLabel, mix.Name))
		baseSum += pick(r.get(baselineSpec().label, mix.Name))
	}
	return metrics.Ratio(float64(cfgSum), float64(baseSum))
}

// familySweep builds the per-figure spec matrix: one family of (mode,
// policy, scheme, property) across the L2 sweep.
type family struct {
	name   string
	mode   hierarchy.InclusionMode
	pol    hierarchy.PolicyKind
	scheme core.Scheme
	prop   core.Property
}

// at is the family's machine with an l2-byte L2 and the default LLC and
// directory, under the one label every figure that runs it shares, so a
// sweep simulates it once.
func (f family) at(l2 int) spec {
	return spec{family: f, label: f.name + "-" + l2Label(l2), l2: l2}
}

func (f family) specs() []spec {
	out := make([]spec, 0, len(l2Sweep))
	for _, l2 := range l2Sweep {
		out = append(out, f.at(l2))
	}
	return out
}

func flatten(fams []family) []spec {
	var out []spec
	for _, f := range fams {
		out = append(out, f.specs()...)
	}
	return out
}

// speedupTable renders a family x L2 sweep as geomean speedups with ranges.
func speedupTable(r *runner, title string, fams []family) *Table {
	mixes := sweepMatrix(r, flatten(fams))
	t := &Table{Title: title, Columns: []string{"256KB", "512KB", "768KB"}}
	for _, f := range fams {
		row := Row{Label: f.name}
		for _, l2 := range l2Sweep {
			gm, lo, hi := speedupRow(r, mixes, f.name+"-"+l2Label(l2))
			row.Values = append(row.Values, gm)
			t.Notes = append(t.Notes, fmt.Sprintf("%s@%s range [%.3f, %.3f]", f.name, l2Label(l2), lo, hi))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// countTable renders normalized event counts for a family sweep.
func countTable(r *runner, title string, fams []family, pick func(Result) uint64) *Table {
	mixes := sweepMatrix(r, flatten(fams))
	t := &Table{Title: title, Columns: []string{"256KB", "512KB", "768KB"}}
	for _, f := range fams {
		row := Row{Label: f.name}
		for _, l2 := range l2Sweep {
			row.Values = append(row.Values, countRatio(r, mixes, f.name+"-"+l2Label(l2), pick))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// The motivation and LRU/Hawkeye config families used across figures.
var (
	famILRU  = family{name: "I-LRU", mode: hierarchy.Inclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeBaseline}
	famNILRU = family{name: "NI-LRU", mode: hierarchy.NonInclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeBaseline}
	famIHawk = family{name: "I-Hawkeye", mode: hierarchy.Inclusive, pol: hierarchy.PolicyHawkeye, scheme: core.SchemeBaseline}
	famNIHwk = family{name: "NI-Hawkeye", mode: hierarchy.NonInclusive, pol: hierarchy.PolicyHawkeye, scheme: core.SchemeBaseline}
	famIMIN  = family{name: "I-MIN", mode: hierarchy.Inclusive, pol: hierarchy.PolicyMIN, scheme: core.SchemeBaseline}

	lruSchemes = []family{
		famILRU, famNILRU,
		{name: "QBS-LRU", mode: hierarchy.Inclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeQBS},
		{name: "SHARP-LRU", mode: hierarchy.Inclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeSHARP},
		{name: "CHARonBase-LRU", mode: hierarchy.Inclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeCHARonBase},
		{name: "ZIV-NotInPrC", mode: hierarchy.Inclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeZIV, prop: core.PropNotInPrC},
		{name: "ZIV-LRUNotInPrC", mode: hierarchy.Inclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeZIV, prop: core.PropLRUNotInPrC},
		{name: "ZIV-LikelyDead", mode: hierarchy.Inclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeZIV, prop: core.PropLikelyDead},
	}

	hawkSchemes = []family{
		famIHawk, famNIHwk,
		{name: "QBS-Hawkeye", mode: hierarchy.Inclusive, pol: hierarchy.PolicyHawkeye, scheme: core.SchemeQBS},
		{name: "SHARP-Hawkeye", mode: hierarchy.Inclusive, pol: hierarchy.PolicyHawkeye, scheme: core.SchemeSHARP},
		{name: "ZIV-MRNotInPrC", mode: hierarchy.Inclusive, pol: hierarchy.PolicyHawkeye, scheme: core.SchemeZIV, prop: core.PropMaxRRPVNotInPrC},
		{name: "ZIV-MRLikelyDead", mode: hierarchy.Inclusive, pol: hierarchy.PolicyHawkeye, scheme: core.SchemeZIV, prop: core.PropMaxRRPVLikelyDead},
	}
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Fig. 1: inclusive vs non-inclusive speedup (LRU, Hawkeye) across L2 sizes",
		run: func(r *runner) *Table {
			return speedupTable(r, "Fig. 1 — normalized speedup vs I-LRU-256KB",
				[]family{famILRU, famNILRU, famIHawk, famNIHwk})
		},
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Fig. 2: normalized inclusion-victim counts (LRU, Hawkeye, MIN)",
		run: func(r *runner) *Table {
			return countTable(r, "Fig. 2 — inclusion victims normalized to I-LRU-256KB",
				[]family{famILRU, famIHawk, famIMIN},
				func(r Result) uint64 { return r.TotalIncl })
		},
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Fig. 3: normalized LLC miss counts",
		run: func(r *runner) *Table {
			return countTable(r, "Fig. 3 — LLC misses normalized to I-LRU-256KB",
				[]family{famILRU, famNILRU, famIHawk, famNIHwk, famIMIN},
				func(r Result) uint64 { return r.TotalLLCMiss })
		},
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Fig. 4: normalized L2 miss counts",
		run: func(r *runner) *Table {
			return countTable(r, "Fig. 4 — L2 misses normalized to I-LRU-256KB",
				[]family{famILRU, famNILRU, famIHawk, famNIHwk, famIMIN},
				func(r Result) uint64 { return r.TotalL2Miss })
		},
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Fig. 8: multi-programmed speedups, LRU baseline (I, NI, QBS, SHARP, CHARonBase, ZIV variants)",
		run: func(r *runner) *Table {
			return speedupTable(r, "Fig. 8 — normalized speedup vs I-LRU-256KB (LRU baseline)", lruSchemes)
		},
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9: per-mix speedup of ZIV-LikelyDead (512KB L2, LRU baseline)",
		run:   func(r *runner) *Table { return perMixTable(r, lruFamilyByName("ZIV-LikelyDead")) },
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Fig. 10: normalized LLC and L2 misses (LRU baseline schemes)",
		run: func(r *runner) *Table {
			return missTable(r, "Fig. 10 — normalized misses (LRU baseline)", lruSchemes)
		},
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Fig. 11: multi-programmed speedups, Hawkeye baseline",
		run: func(r *runner) *Table {
			return speedupTable(r, "Fig. 11 — normalized speedup vs I-LRU-256KB (Hawkeye baseline)", hawkSchemes)
		},
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Fig. 12: per-mix speedup of ZIV-MRLikelyDead (512KB L2, Hawkeye baseline)",
		run:   func(r *runner) *Table { return perMixTable(r, hawkFamilyByName("ZIV-MRLikelyDead")) },
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Fig. 13: normalized LLC and L2 misses (Hawkeye baseline schemes)",
		run: func(r *runner) *Table {
			return missTable(r, "Fig. 13 — normalized misses (Hawkeye baseline)", hawkSchemes)
		},
	})
	register(Experiment{ID: "fig14", Title: "Fig. 14: 16MB LLC with 1MB L2 sensitivity", run: fig14})
	register(Experiment{ID: "fig15", Title: "Fig. 15: sparse-directory size sensitivity (MESI vs ZeroDEV)", run: fig15})
	register(Experiment{ID: "fig16", Title: "Fig. 16: multi-threaded workloads, LRU baseline", run: func(r *runner) *Table { return mtTable(r, hierarchy.PolicyLRU) }})
	register(Experiment{ID: "fig17", Title: "Fig. 17: multi-threaded workloads, Hawkeye baseline", run: func(r *runner) *Table { return mtTable(r, hierarchy.PolicyHawkeye) }})
	register(Experiment{ID: "fig18", Title: "Fig. 18: CDF of relocation intervals", run: fig18})
	register(Experiment{ID: "fig19", Title: "Fig. 19: relocation EPI contribution", run: fig19})
}

func lruFamilyByName(name string) family {
	for _, f := range lruSchemes {
		if f.name == name {
			return f
		}
	}
	panic("harness: unknown LRU family " + name)
}

func hawkFamilyByName(name string) family {
	for _, f := range hawkSchemes {
		if f.name == name {
			return f
		}
	}
	panic("harness: unknown Hawkeye family " + name)
}

// perMixTable renders Fig. 9 / Fig. 12: one row per mix at the 512 KB L2
// point, weighted speedup vs the baseline config.
func perMixTable(r *runner, f family) *Table {
	s := f.at(kb512)
	mixes := sweepMatrix(r, []spec{s})
	t := &Table{
		Title:   fmt.Sprintf("%s per-mix speedup at 512KB L2 (vs I-LRU-256KB)", f.name),
		Columns: []string{"speedup"},
	}
	var xs []float64
	var relocPct []float64
	for _, mix := range mixes {
		base := r.get(baselineSpec().label, mix.Name)
		res := r.get(s.label, mix.Name)
		ws := metrics.WeightedSpeedup(res.Cores, base.Cores)
		xs = append(xs, ws)
		t.Rows = append(t.Rows, Row{Label: mix.Name, Values: []float64{ws}})
		if res.LLC.Misses > 0 {
			relocPct = append(relocPct, 100*float64(res.LLC.Relocations)/float64(res.LLC.Misses))
		}
	}
	lo, hi := metrics.MinMax(xs)
	t.Rows = append(t.Rows, Row{Label: "geomean", Values: []float64{metrics.GeoMean(xs)}})
	t.Notes = append(t.Notes, fmt.Sprintf("range [%.3f, %.3f]", lo, hi))
	if len(relocPct) > 0 {
		avg := 0.0
		for _, p := range relocPct {
			avg += p
		}
		_, maxP := metrics.MinMax(relocPct)
		t.Notes = append(t.Notes, fmt.Sprintf("LLC misses requiring relocation: avg %.1f%%, max %.1f%% (paper: avg 12%%, max 33%%)", avg/float64(len(relocPct)), maxP))
	}
	return t
}

// missTable renders the two-panel miss figures (Figs. 10, 13): normalized
// LLC misses and L2 misses per family and L2 size.
func missTable(r *runner, title string, fams []family) *Table {
	mixes := sweepMatrix(r, flatten(fams))
	t := &Table{Title: title, Columns: []string{
		"LLC-256KB", "LLC-512KB", "LLC-768KB",
		"L2-256KB", "L2-512KB", "L2-768KB",
	}}
	for _, f := range fams {
		row := Row{Label: f.name}
		for _, l2 := range l2Sweep {
			row.Values = append(row.Values, countRatio(r, mixes, f.name+"-"+l2Label(l2), func(r Result) uint64 { return r.TotalLLCMiss }))
		}
		for _, l2 := range l2Sweep {
			row.Values = append(row.Values, countRatio(r, mixes, f.name+"-"+l2Label(l2), func(r Result) uint64 { return r.TotalL2Miss }))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fig14 runs the 16 MB LLC + 1 MB L2 sensitivity study.
func fig14(r *runner) *Table {
	fams := []family{
		famILRU, famNILRU,
		lruFamilyByName("QBS-LRU"), lruFamilyByName("SHARP-LRU"),
		lruFamilyByName("ZIV-NotInPrC"), lruFamilyByName("ZIV-LRUNotInPrC"), lruFamilyByName("ZIV-LikelyDead"),
		famIHawk, famNIHwk,
		hawkFamilyByName("QBS-Hawkeye"), hawkFamilyByName("SHARP-Hawkeye"),
		hawkFamilyByName("ZIV-MRNotInPrC"), hawkFamilyByName("ZIV-MRLikelyDead"),
	}
	specs := make([]spec, len(fams))
	for i, f := range fams {
		specs[i] = spec{family: f, label: f.name + "-1MB", l2: mb1, llcBytes: 16 << 20}
	}
	mixes := sweepMatrix(r, specs)
	t := &Table{Title: "Fig. 14 — 16MB LLC, 1MB L2 (normalized to 8MB I-LRU-256KB)", Columns: []string{"speedup"}}
	for i, f := range fams {
		gm, lo, hi := speedupRow(r, mixes, specs[i].label)
		t.Rows = append(t.Rows, Row{Label: f.name, Values: []float64{gm}})
		t.Notes = append(t.Notes, fmt.Sprintf("%s range [%.3f, %.3f]", f.name, lo, hi))
	}
	return t
}

// fig15 sweeps the sparse directory from 2x to 1/4x under MESI and ZeroDEV.
func fig15(r *runner) *Table {
	factors := []float64{2.0, 1.0, 0.5, 0.25}
	factorLabel := []string{"2x", "1x", "0.5x", "0.25x"}
	fams := []family{famIHawk, famNIHwk, hawkFamilyByName("ZIV-MRLikelyDead")}
	var specs []spec
	var rows []string
	for _, proto := range []string{"MESI", "ZeroDEV"} {
		for _, f := range fams {
			rows = append(rows, f.name+"/"+proto)
			for i, fac := range factors {
				s := spec{family: f, label: fmt.Sprintf("%s-%s-%s", f.name, proto, factorLabel[i]),
					l2: kb256, dirFactor: fac, zeroDEV: proto == "ZeroDEV"}
				if s.config(r.opt) == f.at(kb256).config(r.opt) {
					s = f.at(kb256) // the default directory: Fig. 11's machine
				}
				specs = append(specs, s)
			}
		}
	}
	mixes := sweepMatrix(r, specs)
	t := &Table{Title: "Fig. 15 — directory size sensitivity (Hawkeye, 256KB L2, vs I-LRU-256KB)", Columns: factorLabel}
	for i, label := range rows {
		row := Row{Label: label}
		for _, s := range specs[i*len(factors) : (i+1)*len(factors)] {
			gm, _, _ := speedupRow(r, mixes, s.label)
			row.Values = append(row.Values, gm)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// mtSpec is family f's machine for multi-threaded workload name: 512 KB
// L2s on Options.Cores, except TPC-E, which runs on TPCECores with
// 128 KB L2s and a 256 KB per-core LLC share (paper: 32 MB over 128
// cores).
func mtSpec(o Options, f family, name string) spec {
	s := spec{family: f, label: "mt." + f.name, l2: kb512}
	if name == "tpce" {
		s.cores, s.l2, s.llcBytes = o.TPCECores, 128<<10, o.TPCECores*(256<<10)
	}
	return s
}

// mtTable renders Figs. 16/17: multi-threaded throughput normalized to the
// I-LRU anchor on the same machine geometry. Jobs are keyed (mt.<family>,
// <workload>), so both figures share one anchor job per workload.
func mtTable(r *runner, pol hierarchy.PolicyKind) *Table {
	fams := []family{
		famILRU, famNILRU,
		lruFamilyByName("QBS-LRU"), lruFamilyByName("SHARP-LRU"),
		lruFamilyByName("ZIV-NotInPrC"), lruFamilyByName("ZIV-LikelyDead"),
	}
	if pol == hierarchy.PolicyHawkeye {
		fams = []family{
			famIHawk, famNIHwk,
			hawkFamilyByName("QBS-Hawkeye"), hawkFamilyByName("SHARP-Hawkeye"),
			hawkFamilyByName("ZIV-MRNotInPrC"), hawkFamilyByName("ZIV-MRLikelyDead"),
		}
	}
	o := r.opt
	var jobs []job
	for _, w := range workload.MTWorkloads() {
		for _, f := range append([]family{famILRU}, fams...) {
			s := mtSpec(o, f, w.Name)
			cfg := s.config(o)
			// The workload anchors its footprints to the job's own L2.
			jobs = append(jobs, job{cfgLabel: s.label, cfg: cfg, mix: workload.Mix{Name: w.Name}, baseL2: cfg.L2Bytes,
				gens: func(p workload.Params, seed uint64) []trace.Generator { return w.Build(cfg.Cores, p, seed) }})
		}
	}
	r.runAll(jobs)
	t := &Table{Title: fmt.Sprintf("Fig. 16/17 — multi-threaded workloads (%s baseline, normalized to I-LRU)", pol)}
	for _, f := range fams {
		t.Columns = append(t.Columns, f.name)
	}
	for _, name := range workload.MTNames() {
		baseTP := metrics.Throughput(r.get("mt."+famILRU.name, name).Cores)
		row := Row{Label: name}
		for _, f := range fams {
			row.Values = append(row.Values, metrics.Ratio(metrics.Throughput(r.get("mt."+f.name, name).Cores), baseTP))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("tpce runs on %d cores (paper: 128; use -tpce-cores to change)", o.TPCECores))
	return t
}

// fig18 renders the relocation-interval CDFs of the three ZIV designs.
func fig18(r *runner) *Table {
	designs := []struct {
		name string
		f    family
	}{
		{"LikelyDead(LRU)", lruFamilyByName("ZIV-LikelyDead")},
		{"MRNotInPrC(Hawkeye)", hawkFamilyByName("ZIV-MRNotInPrC")},
		{"MRLikelyDead(Hawkeye)", hawkFamilyByName("ZIV-MRLikelyDead")},
	}
	var specs []spec
	for _, d := range designs {
		specs = append(specs, d.f.at(kb512))
	}
	mixes := sweepMatrix(r, specs)
	t := &Table{Title: "Fig. 18 — CDF of relocation intervals (cycles, log2 buckets; 512KB L2)"}
	for _, d := range designs {
		t.Columns = append(t.Columns, d.name)
	}
	// Merge interval histograms across mixes per design.
	hists := make([][]uint64, len(designs))
	maxBucket := 0
	for i, d := range designs {
		h := make([]uint64, 40)
		for _, mix := range mixes {
			res := r.get(d.f.at(kb512).label, mix.Name)
			for b, c := range res.LLC.IntervalHist {
				h[b] += c
			}
		}
		for b := len(h) - 1; b >= 0; b-- {
			if h[b] > 0 && b > maxBucket {
				maxBucket = b
				break
			}
		}
		hists[i] = h
	}
	cdfs := make([][]float64, len(designs))
	for i, h := range hists {
		cdfs[i] = metrics.CDF(h)
	}
	for b := 0; b <= maxBucket; b++ {
		row := Row{Label: fmt.Sprintf("<=2^%d", b)}
		for i := range designs {
			row.Values = append(row.Values, cdfs[i][b])
		}
		t.Rows = append(t.Rows, row)
	}
	// The paper's headline observation: intervals below ~5 cycles (the
	// nextRS logic latency) are a tiny fraction.
	for i, d := range designs {
		row := fmt.Sprintf("%s: fraction of intervals < 8 cycles = %.4f", d.name, cdfs[i][3])
		t.Notes = append(t.Notes, row)
	}
	return t
}

// fig19 renders the relocation EPI contribution across L2 sizes.
func fig19(r *runner) *Table {
	designs := []struct {
		name string
		f    family
	}{
		{"ZIV-NotInPrC(LRU)", lruFamilyByName("ZIV-NotInPrC")},
		{"ZIV-LikelyDead(LRU)", lruFamilyByName("ZIV-LikelyDead")},
		{"ZIV-MRNotInPrC(Hawkeye)", hawkFamilyByName("ZIV-MRNotInPrC")},
		{"ZIV-MRLikelyDead(Hawkeye)", hawkFamilyByName("ZIV-MRLikelyDead")},
	}
	var specs []spec
	for _, d := range designs {
		specs = append(specs, d.f.specs()...)
	}
	mixes := sweepMatrix(r, specs)
	t := &Table{Title: "Fig. 19 — relocation EPI contribution (pJ/instruction)", Columns: []string{"256KB", "512KB", "768KB"}}
	for _, d := range designs {
		row := Row{Label: d.name}
		for _, l2 := range l2Sweep {
			sum := 0.0
			for _, mix := range mixes {
				sum += r.get(d.f.at(l2).label, mix.Name).RelocEPI
			}
			row.Values = append(row.Values, sum/float64(len(mixes)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper reports at most ~12 pJ for multi-programmed workloads; shape (growth with L2 size) is the comparison target")
	return t
}

func init() {
	register(Experiment{
		ID:    "ext1",
		Title: "Ext. 1: oracle-assisted relocation victims (paper §VI future work) vs LikelyDead and NI",
		run:   ext1,
	})
	register(Experiment{
		ID:    "ext3",
		Title: "Ext. 3: ZIV MaxRRPV property on SRRIP (paper §III-D5 generality)",
		run:   ext3,
	})
	register(Experiment{
		ID:    "ext2",
		Title: "Ext. 2: Algorithm-1 round-robin nextRS vs lowest-index selection (fairness ablation)",
		run:   ext2,
	})
}

// ext1 compares the oracle-assisted ZIV relocation-victim selection against
// the best practical property (LikelyDead) and the non-inclusive LLC across
// the L2 sweep — the paper's §VI question: how close can practical
// relocation properties come to oracle selection?
func ext1(r *runner) *Table {
	fams := []family{
		famNILRU,
		lruFamilyByName("ZIV-NotInPrC"),
		lruFamilyByName("ZIV-LikelyDead"),
		{name: "ZIV-Oracle", mode: hierarchy.Inclusive, pol: hierarchy.PolicyLRU, scheme: core.SchemeZIV, prop: core.PropOracleNotInPrC},
	}
	t := speedupTable(r, "Ext. 1 - oracle relocation victims (normalized to I-LRU-256KB)", fams)
	t.Notes = append(t.Notes, "ZIV-Oracle uses the offline MIN oracle to pick relocation victims; the comparison to ZIV-LikelyDead shows where the remaining headroom lives")
	return t
}

// ext3 exercises the MaxRRPV relocation properties on SRRIP instead of
// Hawkeye (the paper's §III-D5 notes they apply to any RRIP-graded
// policy): SRRIP baselines vs ZIV-MRNotInPrC-on-SRRIP vs NI-SRRIP.
func ext3(r *runner) *Table {
	fams := []family{
		{name: "I-SRRIP", mode: hierarchy.Inclusive, pol: hierarchy.PolicySRRIP, scheme: core.SchemeBaseline},
		{name: "NI-SRRIP", mode: hierarchy.NonInclusive, pol: hierarchy.PolicySRRIP, scheme: core.SchemeBaseline},
		{name: "QBS-SRRIP", mode: hierarchy.Inclusive, pol: hierarchy.PolicySRRIP, scheme: core.SchemeQBS},
		{name: "ZIV-MRNotInPrC-SRRIP", mode: hierarchy.Inclusive, pol: hierarchy.PolicySRRIP, scheme: core.SchemeZIV, prop: core.PropMaxRRPVNotInPrC},
	}
	t := speedupTable(r, "Ext. 3 - ZIV on SRRIP (normalized to I-LRU-256KB)", fams)
	t.Notes = append(t.Notes, "the MaxRRPV relocation property composes with any RRIP-family policy (paper §III-D5); ZIV keeps its zero-victim guarantee under SRRIP")
	return t
}

// ext2 ablates the round-robin nextRS selection (Algorithm 1) against
// lowest-index selection: performance and relocation-target skew.
func ext2(r *runner) *Table {
	f := lruFamilyByName("ZIV-LikelyDead")
	rows := []string{"ZIV-RoundRobin", "ZIV-LowestIndex"}
	specs := []spec{f.at(kb512), {family: f, label: "ZIV-LowestIndex", l2: kb512, selectLowest: true}}
	mixes := sweepMatrix(r, specs)
	t := &Table{
		Title:   "Ext. 2 - nextRS selection ablation (ZIV-LikelyDead, 512KB L2)",
		Columns: []string{"speedup", "target-skew", "fifo-max"},
	}
	for i, s := range specs {
		gm, _, _ := speedupRow(r, mixes, s.label)
		skew, fifo := 0.0, 0.0
		for _, mix := range mixes {
			res := r.get(s.label, mix.Name)
			skew += res.RelocSkew
			if f := float64(res.LLC.FIFOMaxOcc); f > fifo {
				fifo = f
			}
		}
		t.Rows = append(t.Rows, Row{Label: rows[i], Values: []float64{gm, skew / float64(len(mixes)), fifo}})
	}
	t.Notes = append(t.Notes, "target-skew = most-loaded relocation set / mean (1.0 = uniform); round-robin should be markedly flatter")
	return t
}
