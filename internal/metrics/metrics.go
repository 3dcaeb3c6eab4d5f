// Package metrics collects and aggregates the performance statistics the
// paper's figures report: per-core IPC, weighted speedups normalized to a
// baseline configuration, miss counts, inclusion-victim counts, relocation
// statistics and their interval CDF, and energy-per-instruction numbers.
package metrics

import (
	"fmt"
	"math"
)

// CoreStats accumulates per-core execution statistics over the measured
// segment.
type CoreStats struct {
	Instructions uint64
	Cycles       uint64
	Refs         uint64 // memory references issued
	L1Hits       uint64
	L1Misses     uint64
	L2Hits       uint64
	L2Misses     uint64
	LLCHits      uint64
	LLCMisses    uint64
	MemAccesses  uint64
	// InclusionVictims counts this core's private-cache blocks invalidated
	// by LLC evictions (back-invalidations from replacement, not coherence).
	InclusionVictims uint64
	// DirInclusionVictims counts private blocks invalidated by sparse-
	// directory evictions.
	DirInclusionVictims uint64
}

// IPC returns instructions per cycle.
func (c CoreStats) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// Sum adds the counters of o into c.
func (c *CoreStats) Sum(o CoreStats) {
	c.Instructions += o.Instructions
	c.Cycles += o.Cycles
	c.Refs += o.Refs
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.LLCHits += o.LLCHits
	c.LLCMisses += o.LLCMisses
	c.MemAccesses += o.MemAccesses
	c.InclusionVictims += o.InclusionVictims
	c.DirInclusionVictims += o.DirInclusionVictims
}

// WeightedSpeedup returns the mean of per-core IPC ratios against a baseline
// run of the same workload — the paper's normalized performance metric for
// multi-programmed mixes.
func WeightedSpeedup(cfg, base []CoreStats) float64 {
	if len(cfg) != len(base) || len(cfg) == 0 {
		panic(fmt.Sprintf("metrics: mismatched core counts %d vs %d", len(cfg), len(base)))
	}
	sum := 0.0
	for i := range cfg {
		b := base[i].IPC()
		if b == 0 {
			continue
		}
		sum += cfg[i].IPC() / b
	}
	return sum / float64(len(cfg))
}

// Throughput returns aggregate instructions per cycle across cores using the
// longest core runtime (multi-threaded workloads run to a barrier).
func Throughput(cores []CoreStats) float64 {
	var insts, maxCycles uint64
	for _, c := range cores {
		insts += c.Instructions
		if c.Cycles > maxCycles {
			maxCycles = c.Cycles
		}
	}
	if maxCycles == 0 {
		return 0
	}
	return float64(insts) / float64(maxCycles)
}

// GeoMean returns the geometric mean of xs (zeros and negatives are
// skipped).
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// MinMax returns the smallest and largest of xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// CDF converts a log2-bucketed histogram into cumulative fractions. The
// returned slice has one entry per bucket: the fraction of samples in
// buckets <= i.
func CDF(hist []uint64) []float64 {
	var total uint64
	for _, h := range hist {
		total += h
	}
	out := make([]float64, len(hist))
	if total == 0 {
		return out
	}
	var acc uint64
	for i, h := range hist {
		acc += h
		out[i] = float64(acc) / float64(total)
	}
	return out
}
