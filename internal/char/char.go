// Package char implements the cache hierarchy-aware replacement (CHAR)
// dead-block inference mechanism (Chaudhuri et al., PACT 2012) as adapted by
// the ZIV paper (§III-D6): blocks evicted from a core's L2 are classified
// into groups by fill source, demand-reuse count, dirtiness and prefetch
// origin; per-group eviction and recall counters estimate the probability of
// a recall from the LLC, and a block is inferred dead when its group's recall
// ratio falls below a threshold tau = 1/2^d.
//
// The ZIV adaptation makes d dynamic: an LLC bank that finds its
// LikelyDeadNotInPrC property vector empty lowers d (making inference more
// aggressive) and propagates the new value to the L2 controllers by
// piggybacking on eviction-notice acknowledgements, gated by a threshold
// request bitvector (TRBV) and a minimum decrement interval.
package char

// Group attribute bit positions. A group id packs five binary attributes
// (reuse count uses two bits), giving 32 groups.
const (
	attrDirty    = 1 << 0
	attrReuse1   = 1 << 1 // at least one L2 demand reuse
	attrReuse2   = 1 << 2 // at least two L2 demand reuses
	attrLLCHit   = 1 << 3 // filled into the private caches via an LLC hit
	attrPrefetch = 1 << 4 // brought by a prefetch (always 0 in this simulator)
)

// NumGroups is the number of CHAR classification groups.
const NumGroups = 32

// DefaultD is the initial/reset threshold exponent (tau = 1/64).
const DefaultD = 6

// counterCap triggers halving of a group's counters to age the statistics.
const counterCap = 1 << 20

// GroupOf computes the classification group of a block being evicted from
// the L2 cache.
func GroupOf(prefetch, llcHit bool, demandReuses int, dirty bool) uint8 {
	var g uint8
	if dirty {
		g |= attrDirty
	}
	if demandReuses >= 1 {
		g |= attrReuse1
	}
	if demandReuses >= 2 {
		g |= attrReuse2
	}
	if llcHit {
		g |= attrLLCHit
	}
	if prefetch {
		g |= attrPrefetch
	}
	return g
}

// Engine is the per-core (per-L2-controller) CHAR state.
type Engine struct {
	d      int
	evict  [NumGroups]uint64
	recall [NumGroups]uint64
}

// NewEngine returns an engine with the default threshold exponent.
func NewEngine() *Engine { return &Engine{d: DefaultD} }

// SetD lowers the engine's threshold exponent to d if d is smaller than the
// current value (the paper's monotone-decrease rule; different banks may
// propose different values).
func (e *Engine) SetD(d int) {
	if d < e.d && d >= 1 {
		e.d = d
	}
}

// ResetD restores the default threshold exponent (periodic phase-change
// reset).
func (e *Engine) ResetD() { e.d = DefaultD }

// OnEvict records an L2 eviction of a block in group g and returns whether
// the block is inferred dead: recall/evict < 1/2^d, implemented as
// (recall << d) < evict per the paper.
func (e *Engine) OnEvict(g uint8) (inferredDead bool) {
	e.evict[g]++
	if e.evict[g] >= counterCap {
		e.evict[g] >>= 1
		e.recall[g] >>= 1
	}
	return (e.recall[g] << uint(e.d)) < e.evict[g]
}

// OnRecall records that a block previously evicted from this core's L2 in
// group g was fetched again from the LLC.
func (e *Engine) OnRecall(g uint8) { e.recall[g]++ }

// minInterval is the paper's pacing between threshold decrements: a bank
// lowers d at most once per this many eviction notices.
const minInterval = 4096

// BankThresholder is the per-LLC-bank dynamic threshold controller: it owns
// the bank's d value, the TRBV, and the minInterval pacing between
// decrements.
type BankThresholder struct {
	d       int
	trbv    []bool
	notices uint64 // eviction notices seen since the last decrement
}

// NewBankThresholder returns a controller for a bank serving the given
// number of cores.
func NewBankThresholder(cores int) *BankThresholder {
	return &BankThresholder{
		d:       DefaultD,
		trbv:    make([]bool, cores),
		notices: minInterval, // allow an immediate first decrement
	}
}

// OnEmptyPV is called when a relocation request finds the
// LikelyDeadNotInPrC PV empty. If permitted (d > 1 and the pacing interval
// has elapsed), d is decremented and the TRBV is fully set so the new value
// propagates to every core.
func (b *BankThresholder) OnEmptyPV() {
	if b.d <= 1 || b.notices < minInterval {
		return
	}
	b.d--
	b.notices = 0
	for i := range b.trbv {
		b.trbv[i] = true
	}
}

// OnNotice is called when the bank receives a private-cache eviction notice
// or writeback from core. It returns the d value to piggyback on the
// acknowledgement and whether to piggyback at all.
func (b *BankThresholder) OnNotice(core int) (d int, piggyback bool) {
	b.notices++
	if core >= 0 && core < len(b.trbv) && b.trbv[core] {
		b.trbv[core] = false
		return b.d, true
	}
	return b.d, false
}

// Reset restores the default threshold exponent. The hierarchy's periodic
// global reset (banks and engines together, every CharResetInterval
// notices) drives this and Engine.ResetD to handle phase changes, per the
// paper; it is the only reset.
func (b *BankThresholder) Reset() {
	b.d = DefaultD
	for i := range b.trbv {
		b.trbv[i] = false
	}
}
