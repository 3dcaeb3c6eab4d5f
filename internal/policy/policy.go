// Package policy implements the cache replacement policies evaluated in the
// ZIV paper: LRU, NRU, Random, SRRIP, Hawkeye (OPTgen-trained RRIP) and the
// offline Belady MIN oracle.
//
// Policies are pure replacement-state machines over a (set, way) grid; the
// cache substrate invokes the hooks and asks for a victim ranking. Ranking —
// rather than a single victim — is exposed because several LLC victim-
// selection schemes from the paper (QBS, SHARP, CHARonBase, ZIV) walk the
// policy's preference order looking for a victim with particular properties.
package policy

import "math/bits"

// Meta carries the access context a policy may learn from.
type Meta struct {
	PC   uint64 // program counter of the access (Hawkeye trains on this)
	Addr uint64 // block address being accessed/filled
	Pos  uint64 // global access-stream position (MIN oracle index)
}

// Policy is the replacement-state machine contract. Implementations must be
// deterministic given the same call sequence.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init sizes the policy's state for a sets x ways geometry. It is called
	// exactly once, before any other method.
	Init(sets, ways int)
	// OnHit records a hit at (set, way).
	OnHit(set, way int, m Meta)
	// OnFill records a fill of a previously invalid (set, way).
	OnFill(set, way int, m Meta)
	// OnEvict records that the block at (set, way) was replaced by the
	// cache's own replacement decision (Hawkeye detrains on this).
	OnEvict(set, way int)
	// OnInvalidate records an externally forced removal (back-invalidation,
	// coherence invalidation, relocation) of the block at (set, way).
	OnInvalidate(set, way int)
	// Rank returns the ways of set ordered best-victim-first. Only valid
	// (filled) ways need a meaningful order; the cache consults invalid ways
	// before ranking. The returned slice is reused across calls.
	Rank(set int) []int
	// Victim returns Rank(set)[0], with exactly Rank's side effects
	// (SRRIP ages the set, Random draws), without materializing or sorting
	// the order. The caches ask it on every replacement, which makes it
	// the hottest policy entry point; the full Rank order is only needed
	// by QBS, which promotes ways mid-walk, and SHARP's directory stage.
	Victim(set int) int
	// FirstIn returns the first way of Rank(set) whose bit is set in ways
	// (bit w stands for way w), or -1 when there is none. It has exactly
	// Rank's side effects (SRRIP ages the set, Random draws) but builds no
	// permutation: the LLC victim searches that only need the first
	// eligible way in preference order ask for it directly.
	FirstIn(set int, ways uint64) int
	// Promote moves (set, way) to the most-protected position (MRU or
	// RRPV 0) without any predictor training side effects. QBS uses this to
	// move privately cached victim candidates out of harm's way (paper §II).
	Promote(set, way int)
}

// RRPVer is implemented by RRIP-family policies (SRRIP, Hawkeye). The ZIV
// MaxRRPV* relocation-set properties consult it.
type RRPVer interface {
	// RRPV returns the current re-reference prediction value at (set, way).
	RRPV(set, way int) int
	// MaxRRPV returns the distant-future RRPV value (2^bits - 1).
	MaxRRPV() int
}

// LRUPositioner is implemented by recency-ordered policies. The ZIV
// LRUNotInPrC property consults it.
type LRUPositioner interface {
	// LRUWay returns the way currently in the least-recently-used position
	// of set (the next baseline victim among valid ways).
	LRUWay(set int) int
}

// rankBuf is a reusable ranking buffer embedded by implementations.
// Init implementations size it once via grow so that take — and thus
// every Rank call on the fill path — never allocates.
type rankBuf struct {
	buf []int
}

// grow sizes the buffer for ways entries; called from Init.
func (r *rankBuf) grow(ways int) {
	if cap(r.buf) < ways {
		r.buf = make([]int, ways)
	}
}

// take returns the ways-length reusable buffer. Every slot must be
// overwritten by the caller before the slice is returned.
func (r *rankBuf) take(ways int) []int {
	if cap(r.buf) < ways {
		panic("policy: Rank called before Init")
	}
	return r.buf[:ways]
}

// inWays drops the bits of a FirstIn mask that name no way of an n-way
// set: Rank never returns them, so FirstIn must never match them.
func inWays(ways uint64, n int) uint64 {
	if n >= 64 {
		return ways
	}
	return ways & (1<<uint(n) - 1)
}

// firstMaxIn returns the way in ways with the largest value, ties broken by
// lowest way index: the first of ways in a stable descending sort by value,
// which is how the RRIP policies rank.
func firstMaxIn(vals []int, ways uint64) int {
	best, bestVal := -1, 0
	for m := inWays(ways, len(vals)); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if v := vals[w]; best < 0 || v > bestVal {
			best, bestVal = w, v
		}
	}
	return best
}
