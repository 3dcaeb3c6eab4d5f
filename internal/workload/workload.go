// Package workload defines the synthetic application archetypes and mix
// construction that substitute for the paper's SPEC CPU 2017 multi-programmed
// workloads and PARSEC/SPEC-OMP/TPC-E multi-threaded workloads (DESIGN.md
// §4).
//
// Application footprints are expressed relative to the simulated machine
// (per-core L2 capacity and per-core LLC share), so the same archetype
// exercises the same capacity regime at any machine scale. The behaviours
// the paper's dynamics depend on are represented directly:
//
//   - circular reuse patterns larger than a capacity level (the
//     inclusion-victim driver for MIN-like policies, §I-A),
//   - working sets that fit one L2 size but not a smaller one (the
//     L2-capacity sensitivity driver),
//   - LLC-resident working sets with heavy LLC reuse (the workloads QBS and
//     SHARP sacrifice hits for),
//   - streaming/random memory-bound patterns (cache-averse traffic), and
//   - cache-fitting hot sets (the victims of other programs' inclusion
//     victims).
package workload

import (
	"fmt"
	"sort"

	"zivsim/internal/trace"
)

// Params carries the machine capacities that archetype footprints scale
// against.
type Params struct {
	// L2Bytes is the per-core private L2 capacity.
	L2Bytes uint64
	// LLCShareBytes is the LLC capacity divided by the core count.
	LLCShareBytes uint64
	// BaseL2Bytes is the smallest L2 configuration of the study (footprints
	// that must straddle L2 sizes are anchored to it, not to the current
	// L2, so an application's footprint does not change across the L2
	// sweep).
	BaseL2Bytes uint64
}

// App is one synthetic application archetype.
type App struct {
	// Name identifies the archetype, e.g. "circ.llc.a".
	Name string
	// Build constructs the generator at address-space base with the seed.
	Build func(base, seed uint64, p Params) trace.Generator
}

// gap levels: lower gap = more memory-intensive.
const (
	gapLow  = 1
	gapMid  = 4
	gapHigh = 10
)

func apps() []App {
	mk := func(name string, f func(base, seed uint64, p Params) trace.Generator) App {
		return App{Name: name, Build: f}
	}
	var out []App

	// stream.*: pure streaming over multiples of the LLC share. Cache-averse
	// at every level; generates heavy DRAM and LLC fill traffic.
	for _, v := range []struct {
		suffix string
		mult   uint64
		gap    int
	}{{"a", 2, gapLow}, {"b", 4, gapMid}, {"c", 8, gapHigh}} {
		m, g := v.mult, v.gap
		out = append(out, mk("stream."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			return trace.NewStream(base, m*p.LLCShareBytes, 0.25, g, seed)
		}))
	}

	// circ.llc.*: circular reuse slightly larger than the LLC share. LRU
	// thrashes; MIN/Hawkeye retain a subset whose members are recently used
	// — the paper's inclusion-victim generator.
	for _, v := range []struct {
		suffix string
		num    uint64 // footprint = num/8 * LLC share
		gap    int
	}{{"a", 10, gapLow}, {"b", 12, gapMid}, {"c", 14, gapLow}} {
		n, g := v.num, v.gap
		out = append(out, mk("circ.llc."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			return trace.NewCircular(base, n*p.LLCShareBytes/8/64, 1, 0.2, g, seed)
		}))
	}

	// circ.l2.*: circular reuse larger than the *base* L2 but well inside
	// the LLC share: misses the small L2, hits the LLC; bigger L2s capture
	// it. The non-inclusive L2-scaling driver.
	for _, v := range []struct {
		suffix string
		num    uint64 // footprint = num/8 * base L2
		gap    int
	}{{"a", 10, gapLow}, {"b", 14, gapMid}, {"c", 20, gapLow}} {
		n, g := v.num, v.gap
		out = append(out, mk("circ.l2."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			return trace.NewCircular(base, n*p.BaseL2Bytes/8/64, 1, 0.2, g, seed)
		}))
	}

	// hot.fit.*: hot set fitting the smallest L2. High locality, high IPC —
	// the victim of other programs' inclusion victims.
	for _, v := range []struct {
		suffix string
		num    uint64 // hot = num/8 * base L2
		gap    int
	}{{"a", 4, gapHigh}, {"b", 5, gapMid}, {"c", 6, gapHigh}} {
		n, g := v.num, v.gap
		out = append(out, mk("hot.fit."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			hot := n * p.BaseL2Bytes / 8
			return trace.NewDriftingHot(base, hot, 4*p.LLCShareBytes, 0.97, 0.3, g, 128, seed)
		}))
	}

	// hot.mid.*: hot set between the base L2 and twice the base L2 — fits
	// the larger L2 configurations only.
	for _, v := range []struct {
		suffix string
		num    uint64 // hot = num/8 * base L2
		gap    int
	}{{"a", 12, gapMid}, {"b", 14, gapLow}, {"c", 16, gapMid}} {
		n, g := v.num, v.gap
		out = append(out, mk("hot.mid."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			hot := n * p.BaseL2Bytes / 8
			return trace.NewDriftingHot(base, hot, 4*p.LLCShareBytes, 0.95, 0.3, g, 96, seed)
		}))
	}

	// wset.llc.*: LLC-share-resident working set, far larger than any L2:
	// constant L2 misses served by LLC hits — the LLC-reuse-heavy behaviour
	// that QBS/SHARP sacrifice (paper §V-B, facesim/vips discussion).
	for _, v := range []struct {
		suffix string
		num    uint64 // hot = num/8 * LLC share
		gap    int
	}{{"a", 6, gapLow}, {"b", 7, gapMid}, {"c", 5, gapLow}} {
		n, g := v.num, v.gap
		out = append(out, mk("wset.llc."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			hot := n * p.LLCShareBytes / 8
			return trace.NewDriftingHot(base, hot, 8*p.LLCShareBytes, 0.92, 0.2, g, 64, seed)
		}))
	}

	// ptr.*: pointer chasing over varying footprints.
	for _, v := range []struct {
		suffix string
		mult   uint64 // footprint = mult/4 * LLC share
		gap    int
	}{{"a", 2, gapMid}, {"b", 5, gapLow}, {"c", 10, gapMid}} {
		m, g := v.mult, v.gap
		out = append(out, mk("ptr."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			return trace.NewPointerChase(base, m*p.LLCShareBytes/4, 0.1, g, seed)
		}))
	}

	// rand.*: uniform random over large regions — memory bound, destroys
	// locality of co-runners through LLC pressure.
	for _, v := range []struct {
		suffix string
		mult   uint64
		gap    int
	}{{"a", 4, gapMid}, {"b", 8, gapLow}, {"c", 16, gapHigh}} {
		m, g := v.mult, v.gap
		out = append(out, mk("rand."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			return trace.NewUniform(base, m*p.LLCShareBytes, 0.3, g, seed)
		}))
	}

	// blend.*: hot set plus streaming background.
	for _, v := range []struct {
		suffix  string
		hotNum  uint64 // hot = num/8 * base L2
		weights [2]float64
		gap     int
	}{{"a", 6, [2]float64{3, 1}, gapMid}, {"b", 10, [2]float64{2, 1}, gapLow}, {"c", 4, [2]float64{1, 1}, gapMid}} {
		n, w, g := v.hotNum, v.weights, v.gap
		out = append(out, mk("blend."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			hot := trace.NewHot(base, n*p.BaseL2Bytes/8, p.LLCShareBytes, 0.95, 0.3, g, seed)
			str := trace.NewStream(base+1<<36, 4*p.LLCShareBytes, 0.2, g, seed^1)
			return trace.NewBlend(seed^2, []trace.Generator{hot, str}, w[:])
		}))
	}

	// phase.*: alternating circular/hot phases (phase-change stressor for
	// CHAR's periodic threshold reset and Hawkeye's training).
	for _, v := range []struct {
		suffix   string
		circNum  uint64 // circular = num/8 * LLC share
		phaseLen int
		gap      int
	}{{"a", 10, 20000, gapLow}, {"b", 12, 50000, gapMid}, {"c", 9, 10000, gapLow}} {
		n, pl, g := v.circNum, v.phaseLen, v.gap
		out = append(out, mk("phase."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			circ := trace.NewCircular(base, n*p.LLCShareBytes/8/64, 1, 0.2, g, seed)
			hot := trace.NewHot(base+1<<36, 4*p.BaseL2Bytes/8, p.LLCShareBytes, 0.95, 0.3, g, seed^1)
			return trace.NewPhased([]trace.Generator{circ, hot}, pl)
		}))
	}

	// wr.*: write-heavy streaming (dirty writeback pressure).
	for _, v := range []struct {
		suffix string
		mult   uint64
		gap    int
	}{{"a", 2, gapMid}, {"b", 4, gapLow}, {"c", 6, gapMid}} {
		m, g := v.mult, v.gap
		out = append(out, mk("wr."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			return trace.NewStream(base, m*p.LLCShareBytes, 0.7, g, seed)
		}))
	}

	// circ.wide.*: circular far beyond LLC capacity — nothing retains it;
	// pure bandwidth load.
	for _, v := range []struct {
		suffix string
		mult   uint64
		gap    int
	}{{"a", 3, gapMid}, {"b", 4, gapLow}, {"c", 6, gapHigh}} {
		m, g := v.mult, v.gap
		out = append(out, mk("circ.wide."+v.suffix, func(base, seed uint64, p Params) trace.Generator {
			return trace.NewCircular(base, m*p.LLCShareBytes/64, 1, 0.2, g, seed)
		}))
	}

	return out
}

var appList = apps()

// Apps returns the 36 application archetypes in deterministic order.
func Apps() []App { return appList }

// AppNames returns the archetype names in order.
func AppNames() []string {
	names := make([]string, len(appList))
	for i, a := range appList {
		names[i] = a.Name
	}
	return names
}

// AppByName finds an archetype.
func AppByName(name string) (App, bool) {
	for _, a := range appList {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// Mix is a named multi-programmed workload: one application per core.
type Mix struct {
	Name string
	Apps []string
}

// HomogeneousMixes returns the 36 homogeneous mixes (cores copies of each
// archetype), mirroring the paper's homogeneous multi-programming setup.
func HomogeneousMixes(cores int) []Mix {
	out := make([]Mix, 0, len(appList))
	for _, a := range appList {
		names := make([]string, cores)
		for i := range names {
			names[i] = a.Name
		}
		out = append(out, Mix{Name: "homo." + a.Name, Apps: names})
	}
	return out
}

// HeterogeneousMixes builds n random mixes of `cores` distinct applications
// with equal representation across mixes (each archetype appears the same
// number of times overall, as in the paper), deterministically from seed.
func HeterogeneousMixes(cores, n int, seed uint64) []Mix {
	if n == 0 {
		return nil
	}
	if cores > len(appList) {
		panic(fmt.Sprintf("workload: cannot draw %d distinct apps from %d", cores, len(appList)))
	}
	// Build a pool with near-equal representation and shuffle it.
	slots := cores * n
	pool := make([]int, 0, slots)
	for len(pool) < slots {
		for i := range appList {
			pool = append(pool, i)
			if len(pool) == slots {
				break
			}
		}
	}
	r := seed
	rnd := func(m int) int {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return int(r % uint64(m))
	}
	for i := len(pool) - 1; i > 0; i-- {
		j := rnd(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	// Repair duplicates within each cores-sized chunk by swapping with a
	// compatible element from the pool's tail; if none exists, substitute an
	// unused app directly (representation then skews by one — rare).
	out := make([]Mix, 0, n)
	for m := 0; m < n; m++ {
		start := m * cores
		seen := map[int]bool{}
		for i := start; i < start+cores; i++ {
			if !seen[pool[i]] {
				seen[pool[i]] = true
				continue
			}
			fixed := false
			for j := start + cores; j < len(pool); j++ {
				if !seen[pool[j]] {
					pool[i], pool[j] = pool[j], pool[i]
					seen[pool[i]] = true
					fixed = true
					break
				}
			}
			if !fixed {
				for k := range appList {
					if !seen[k] {
						pool[i] = k
						seen[k] = true
						break
					}
				}
			}
		}
		names := make([]string, cores)
		for i := 0; i < cores; i++ {
			names[i] = appList[pool[start+i]].Name
		}
		sort.Strings(names)
		out = append(out, Mix{Name: fmt.Sprintf("hetero.%02d", m), Apps: names})
	}
	return out
}

// BuildMix constructs per-core generators for a mix. Each application gets
// its own disjoint address-space base, and the whole mix shares one
// bijective page translation (see trace.Translate) so working sets spread
// over the LLC and directory sets the way physically backed pages do.
func BuildMix(mix Mix, p Params, seed uint64) []trace.Generator {
	gens := make([]trace.Generator, len(mix.Apps))
	for i, name := range mix.Apps {
		app, ok := AppByName(name)
		if !ok {
			panic(fmt.Sprintf("workload: unknown application %q", name))
		}
		base := (uint64(i) + 1) << 40
		gens[i] = app.Build(base, seed*1000003+uint64(i)*104729+1, p)
	}
	return trace.TranslateAll(gens, seed^0xd1f7a9c3)
}
