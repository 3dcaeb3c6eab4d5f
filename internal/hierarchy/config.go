// Package hierarchy wires the full simulated CMP together: per-core private
// L1/L2 caches, the shared banked LLC (internal/core), the sparse coherence
// directory, the CHAR inference engines, the mesh interconnect, and the DRAM
// model. It implements the access-driven simulation described in DESIGN.md
// §3, including the directory-based MESI protocol actions, eviction notices,
// back-invalidations (and their absence under ZIV and non-inclusive modes),
// and all statistics the paper's figures consume.
package hierarchy

import (
	"fmt"

	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/dram"
)

// InclusionMode selects the LLC inclusion policy.
type InclusionMode int

// Inclusion modes evaluated in the paper.
const (
	// Inclusive: LLC evictions back-invalidate private copies (unless the
	// victim-selection scheme avoids choosing privately cached victims).
	Inclusive InclusionMode = iota
	// NonInclusive: LLC evictions leave private copies alone; the directory
	// keeps tracking blocks absent from the LLC (the "fourth case").
	NonInclusive
)

// String returns the mode mnemonic used in the paper's figures.
func (m InclusionMode) String() string {
	if m == NonInclusive {
		return "NI"
	}
	return "I"
}

// PolicyKind selects the baseline LLC replacement policy.
type PolicyKind int

// Baseline LLC policies evaluated in the paper.
const (
	PolicyLRU PolicyKind = iota
	PolicyHawkeye
	PolicyMIN // offline oracle; motivation figures only
	// PolicySRRIP is static re-reference interval prediction (Jaleel et
	// al., ISCA 2010). The paper notes the MaxRRPV* relocation properties
	// apply to any RRIP-graded policy (§III-D5); SRRIP exercises that
	// generality.
	PolicySRRIP
)

// String returns the policy name.
func (p PolicyKind) String() string {
	switch p {
	case PolicyLRU:
		return "LRU"
	case PolicyHawkeye:
		return "Hawkeye"
	case PolicyMIN:
		return "MIN"
	case PolicySRRIP:
		return "SRRIP"
	}
	return "?"
}

// Config describes one simulated machine configuration.
type Config struct {
	Cores int

	// L1 data cache (per core).
	L1Bytes   int
	L1Ways    int
	L1Latency int // cycles

	// L2 private cache (per core).
	L2Bytes   int
	L2Ways    int
	L2Latency int // cycles

	// Shared LLC.
	LLCBytes   int
	LLCWays    int
	LLCBanks   int
	LLCTagLat  int
	LLCDataLat int
	// RelocAccessDelta is the extra latency of reaching a relocated block
	// (paper §III-C1: 1-3 cycles depending on the L2 size).
	RelocAccessDelta int

	Mode     InclusionMode
	Scheme   core.Scheme
	Property core.Property
	Policy   PolicyKind

	// Sparse directory provisioning: DirFactor x aggregate L2 tags
	// (2.0 = the paper's 2x directory), DirWays associativity.
	DirFactor float64
	DirWays   int
	ZeroDEV   bool

	// SelectLowest ablates Algorithm 1's round-robin relocation-set
	// selection with lowest-index selection (ZIV configurations only).
	SelectLowest bool
	// FillCrossBank selects the paper's §III-D1 alternative cross-bank
	// policy: place the newly filled block in the other bank instead of
	// moving the victim.
	FillCrossBank bool

	// MLPOverlap is the fraction of DRAM latency charged to the core (the
	// remainder overlaps with other work).
	MLPOverlap float64
	// CharResetInterval is the number of eviction notices between periodic
	// CHAR threshold resets (paper §III-D6).
	CharResetInterval uint64

	Mem dram.Config

	// DebugChecks enables full invariant validation every CheckEvery
	// references (expensive; tests only).
	DebugChecks bool
	CheckEvery  int
}

// Validate panics on inconsistent configurations.
func (c Config) Validate() {
	if c.Cores <= 0 {
		panic("hierarchy: Cores must be positive")
	}
	if c.Cores > directory.MaxCores {
		panic(fmt.Sprintf("hierarchy: %d cores exceed directory.MaxCores (%d), the width of a directory entry's sharer vector", c.Cores, directory.MaxCores))
	}
	if c.Scheme == core.SchemeZIV && c.Mode != Inclusive {
		panic("hierarchy: ZIV is an inclusive-LLC design")
	}
	if c.Policy == PolicyMIN && c.Scheme != core.SchemeBaseline {
		panic("hierarchy: the MIN oracle policy supports the baseline scheme only")
	}
	aggregatePrivate := c.Cores * (c.L1Bytes + c.L2Bytes)
	if c.Mode == Inclusive && aggregatePrivate >= c.LLCBytes {
		panic(fmt.Sprintf("hierarchy: inclusive configuration needs aggregate private capacity (%d) below LLC capacity (%d)", aggregatePrivate, c.LLCBytes))
	}
}

// Name returns a compact configuration label, e.g. "I-Hawkeye-ZIV(MRLikelyDead)".
func (c Config) Name() string {
	s := c.Mode.String() + "-" + c.Policy.String()
	switch c.Scheme {
	case core.SchemeBaseline:
	case core.SchemeZIV:
		s += "-ZIV(" + c.Property.String() + ")"
	default:
		s += "-" + c.Scheme.String()
	}
	return s
}

// l2LatencyFor mirrors Table I: larger L2s have longer lookup latency.
func l2LatencyFor(l2Bytes int) int {
	switch {
	case l2Bytes <= 256<<10:
		return 4
	case l2Bytes <= 512<<10:
		return 5
	case l2Bytes <= 768<<10:
		return 6
	default:
		return 7
	}
}

// relocDeltaFor mirrors §III-C1: the relocated-access latency delta grows
// with the sparse directory (i.e. the L2 capacity).
func relocDeltaFor(l2Bytes int) int {
	switch {
	case l2Bytes <= 256<<10:
		return 1
	case l2Bytes <= 512<<10:
		return 2
	default:
		return 3
	}
}

// DefaultConfig returns the paper's Table I machine for the given per-core
// L2 capacity in bytes, divided by scale (a power of two; scale 1 is the
// full 8 MB-LLC machine, scale 8 is the laptop-friendly default used by the
// experiment harness — capacity ratios, and therefore all normalized shapes,
// are preserved).
func DefaultConfig(cores, l2Bytes, scale int) Config {
	if scale < 1 {
		scale = 1
	}
	llc := 8 << 20 // 1 MB per core at 8 cores
	if cores != 8 {
		llc = cores << 20
	}
	cfg := Config{
		Cores:     cores,
		L1Bytes:   (32 << 10) / scale,
		L1Ways:    8,
		L1Latency: 1,

		L2Bytes:   l2Bytes / scale,
		L2Ways:    waysFor(l2Bytes),
		L2Latency: l2LatencyFor(l2Bytes),

		LLCBytes:   llc / scale,
		LLCWays:    16,
		LLCBanks:   8,
		LLCTagLat:  2,
		LLCDataLat: 5,

		RelocAccessDelta: relocDeltaFor(l2Bytes),

		Mode:   Inclusive,
		Scheme: core.SchemeBaseline,
		Policy: PolicyLRU,

		DirFactor: 2.0,
		DirWays:   dirWaysFor(l2Bytes),

		MLPOverlap:        0.7,
		CharResetInterval: 1 << 18,

		Mem: dram.DefaultConfig(),

		CheckEvery: 4096,
	}
	return cfg
}

// waysFor mirrors Table I: 768 KB L2s are 12-way, others 8-way.
func waysFor(l2Bytes int) int {
	if l2Bytes == 768<<10 {
		return 12
	}
	return 8
}

// dirWaysFor mirrors §III-C3: the 768 KB configuration uses a 12-way
// directory slice (2048 sets x 12 ways), others 8-way.
func dirWaysFor(l2Bytes int) int {
	if l2Bytes == 768<<10 {
		return 12
	}
	return 8
}
