// Package zivsim is a simulation library reproducing "Zero Inclusion Victim:
// Isolating Core Caches from Inclusive Last-level Cache Evictions"
// (Chaudhuri, ISCA 2021).
//
// It provides a complete chip-multiprocessor cache-hierarchy simulator —
// per-core L1/L2 private caches, a banked shared last-level cache with
// pluggable replacement policies (LRU, SRRIP, Hawkeye, offline MIN), a
// sparse MESI coherence directory, a DDR3 memory model and a mesh
// interconnect — together with the paper's contribution: the ZIV LLC, an
// inclusive last-level cache that guarantees zero inclusion victims by
// relocating privately cached victims to other LLC sets, plus the competing
// victim-selection schemes it is evaluated against (QBS, SHARP, CHARonBase)
// and the non-inclusive baseline.
//
// This root package is a façade over the implementation packages: it
// re-exports the types and constructors a downstream user needs to build and
// run simulations. The experiment harness that regenerates every figure of
// the paper lives in internal/harness and is driven by cmd/zivsim.
//
// # Quick start
//
//	cfg := zivsim.DefaultConfig(8, 512<<10, 8) // 8 cores, 512KB L2, 1/8 scale
//	cfg.Scheme = zivsim.SchemeZIV
//	cfg.Property = zivsim.PropLikelyDead
//	gens := zivsim.BuildMix(zivsim.Mix{Name: "m", Apps: [...]}, params, seed)
//	m := zivsim.NewMachine(cfg, gens, warmup, measure)
//	m.Run()
//	fmt.Println(m.InclusionVictimTotal()) // always 0 under ZIV
package zivsim

import (
	"zivsim/internal/core"
	"zivsim/internal/hierarchy"
	"zivsim/internal/metrics"
	"zivsim/internal/trace"
	"zivsim/internal/workload"
)

// Machine is the simulated chip-multiprocessor.
type Machine = hierarchy.Machine

// Config describes one simulated machine configuration.
type Config = hierarchy.Config

// InclusionMode selects the LLC inclusion policy.
type InclusionMode = hierarchy.InclusionMode

// PolicyKind selects the baseline LLC replacement policy.
type PolicyKind = hierarchy.PolicyKind

// Scheme selects the LLC victim-selection scheme.
type Scheme = core.Scheme

// Property selects the ZIV relocation-set property configuration.
type Property = core.Property

// CoreStats accumulates per-core execution statistics.
type CoreStats = metrics.CoreStats

// Generator produces an infinite deterministic reference stream.
type Generator = trace.Generator

// Ref is one memory reference.
type Ref = trace.Ref

// Mix is a named multi-programmed workload.
type Mix = workload.Mix

// Params carries the machine capacities workload footprints scale against.
type Params = workload.Params

// Inclusion modes.
const (
	Inclusive    = hierarchy.Inclusive
	NonInclusive = hierarchy.NonInclusive
)

// Baseline LLC replacement policies.
const (
	PolicyLRU     = hierarchy.PolicyLRU
	PolicyHawkeye = hierarchy.PolicyHawkeye
	PolicyMIN     = hierarchy.PolicyMIN
)

// Victim-selection schemes.
const (
	SchemeBaseline   = core.SchemeBaseline
	SchemeQBS        = core.SchemeQBS
	SchemeSHARP      = core.SchemeSHARP
	SchemeCHARonBase = core.SchemeCHARonBase
	SchemeZIV        = core.SchemeZIV
)

// ZIV relocation-set properties (paper §III-D).
const (
	PropNone              = core.PropNone
	PropNotInPrC          = core.PropNotInPrC
	PropLRUNotInPrC       = core.PropLRUNotInPrC
	PropLikelyDead        = core.PropLikelyDead
	PropMaxRRPVNotInPrC   = core.PropMaxRRPVNotInPrC
	PropMaxRRPVLikelyDead = core.PropMaxRRPVLikelyDead
)

// DefaultConfig returns the paper's Table I machine for the given per-core
// L2 capacity in bytes, with every capacity divided by scale (1 = the full
// 8 MB-LLC machine; capacity ratios and normalized shapes are preserved
// under scaling).
func DefaultConfig(cores, l2Bytes, scale int) Config {
	return hierarchy.DefaultConfig(cores, l2Bytes, scale)
}

// NewMachine builds a machine running the given per-core reference
// generators for warmup+measure references per core.
func NewMachine(cfg Config, gens []Generator, warmup, measure int) *Machine {
	return hierarchy.New(cfg, gens, warmup, measure)
}

// Apps returns the 36 synthetic application archetypes.
func Apps() []workload.App { return workload.Apps() }

// AppNames returns the archetype names.
func AppNames() []string { return workload.AppNames() }

// BuildMix constructs per-core generators for a multi-programmed mix.
func BuildMix(mix Mix, p Params, seed uint64) []Generator {
	return workload.BuildMix(mix, p, seed)
}

// HomogeneousMixes returns one mix per archetype (cores copies each).
func HomogeneousMixes(cores int) []Mix { return workload.HomogeneousMixes(cores) }

// HeterogeneousMixes builds n random mixes of distinct applications with
// near-equal representation, deterministically from seed.
func HeterogeneousMixes(cores, n int, seed uint64) []Mix {
	return workload.HeterogeneousMixes(cores, n, seed)
}

// WeightedSpeedup returns the mean per-core IPC ratio of cfg over base — the
// paper's normalized performance metric.
func WeightedSpeedup(cfg, base []CoreStats) float64 {
	return metrics.WeightedSpeedup(cfg, base)
}

// Throughput returns aggregate instructions per cycle across cores (the
// multi-threaded workload metric).
func Throughput(cores []CoreStats) float64 { return metrics.Throughput(cores) }

// NewStream returns a sequential streaming generator over a region.
func NewStream(base, bytes uint64, writeFrac float64, gapMean int, seed uint64) Generator {
	return trace.NewStream(base, bytes, writeFrac, gapMean, seed)
}

// NewCircular returns a generator cycling through blocks at a stride — the
// paper's inclusion-victim driver pattern.
func NewCircular(base uint64, blocks, stride uint64, writeFrac float64, gapMean int, seed uint64) Generator {
	return trace.NewCircular(base, blocks, stride, writeFrac, gapMean, seed)
}

// NewHot returns a hot-working-set generator.
func NewHot(base, hotBytes, coldBytes uint64, hotFrac, writeFrac float64, gapMean int, seed uint64) Generator {
	return trace.NewHot(base, hotBytes, coldBytes, hotFrac, writeFrac, gapMean, seed)
}

// NewUniform returns a uniform random generator over a region.
func NewUniform(base, bytes uint64, writeFrac float64, gapMean int, seed uint64) Generator {
	return trace.NewUniform(base, bytes, writeFrac, gapMean, seed)
}

// NewPointerChase returns a permutation-walk generator (dependent loads).
func NewPointerChase(base, bytes uint64, writeFrac float64, gapMean int, seed uint64) Generator {
	return trace.NewPointerChase(base, bytes, writeFrac, gapMean, seed)
}

// Translate wraps a generator with the bijective page scramble used to model
// physical page placement.
func Translate(g Generator, key uint64) Generator { return trace.Translate(g, key) }
