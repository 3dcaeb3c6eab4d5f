// Package policy implements the four LLC replacement policies evaluated in
// the ZIV paper: LRU, SRRIP, Hawkeye (OPTgen-trained RRIP) and the offline
// Belady MIN oracle. The private caches keep their own true LRU
// (internal/cache) and the sparse directory its own 1-bit NRU
// (internal/directory).
//
// Policies are pure replacement-state machines over a (set, way) grid; the
// LLC banks invoke the hooks and ask for a victim ranking. Ranking —
// rather than a single victim — is exposed because several LLC victim-
// selection schemes from the paper (QBS, SHARP, CHARonBase, ZIV) walk the
// policy's preference order looking for a victim with particular properties.
package policy

// Meta carries the access context a policy may learn from.
type Meta struct {
	PC   uint64 // program counter of the access (Hawkeye trains on this)
	Addr uint64 // block address being accessed/filled
	Pos  uint64 // global access-stream position (MIN oracle index)
}

// Policy is the replacement-state machine contract. Implementations must be
// deterministic given the same call sequence.
type Policy interface {
	// Init sizes the policy's state for a sets x ways geometry. It is called
	// exactly once, before any other method.
	Init(sets, ways int)
	// OnHit records a hit at (set, way).
	OnHit(set, way int, m Meta)
	// OnFill records a fill of a previously invalid (set, way).
	OnFill(set, way int, m Meta)
	// OnEvict records that the block at (set, way) was replaced by the
	// LLC's own replacement decision (Hawkeye detrains on this).
	OnEvict(set, way int)
	// OnInvalidate records an externally forced removal (back-invalidation,
	// coherence invalidation, relocation) of the block at (set, way).
	OnInvalidate(set, way int)
	// Rank returns the ways of set ordered best-victim-first. Only valid
	// (filled) ways need a meaningful order; the LLC consults invalid ways
	// before ranking. The returned slice is reused across calls.
	Rank(set int) []int
	// Victim returns the first way of Rank(set) whose bit is set in ways
	// (bit w stands for way w), or -1 when there is none, with exactly
	// Rank's side effects (SRRIP ages the set) but without building the
	// permutation. The LLC banks ask it with every way set for the
	// baseline victim of a full set, the hottest policy entry point, and
	// with a candidate class's mask for that class's first way in
	// preference order; only QBS, which promotes ways mid-walk, and
	// SHARP's directory stage need the full Rank order.
	Victim(set int, ways uint64) int
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

// firstMaxIn returns the way in ways with the largest value, ties broken by
// lowest way index: the first of ways in a stable descending sort by value,
// which is how the RRIP policies rank. RRPVs are non-negative, so a way
// outside ways keys as -1 and the loop compiles to conditional moves.
func firstMaxIn(vals []int, ways uint64) int {
	best, bestKey := -1, -1
	for w, v := range vals {
		if k := v | (int(ways&1) - 1); k > bestKey {
			best, bestKey = w, k
		}
		ways >>= 1
	}
	return best
}
