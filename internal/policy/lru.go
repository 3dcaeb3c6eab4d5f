package policy

import "math/bits"

// LRU implements true least-recently-used replacement using per-way
// timestamps. Victim ranking is oldest-first.
type LRU struct {
	rankBuf
	sets, ways int
	stamp      []uint64 // sets*ways access timestamps; 0 = never touched
	clock      uint64
}

// NewLRU returns a true-LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Init implements Policy.
func (p *LRU) Init(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.stamp = make([]uint64, sets*ways)
	p.clock = 0
	p.grow(ways)
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// OnHit implements Policy.
func (p *LRU) OnHit(set, way int, _ Meta) { p.touch(set, way) }

// OnFill implements Policy.
func (p *LRU) OnFill(set, way int, _ Meta) { p.touch(set, way) }

// OnEvict implements Policy.
func (p *LRU) OnEvict(set, way int) { p.stamp[set*p.ways+way] = 0 }

// OnInvalidate implements Policy.
func (p *LRU) OnInvalidate(set, way int) { p.stamp[set*p.ways+way] = 0 }

// Rank implements Policy: ways ordered oldest (LRU) to newest (MRU).
func (p *LRU) Rank(set int) []int {
	out := p.take(p.ways)
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		out[w] = w
	}
	// Insertion sort by ascending timestamp; associativity is small (8-16).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && p.stamp[base+out[j]] < p.stamp[base+out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FirstIn implements Policy: the way in ways with the smallest timestamp,
// ties broken by lowest way index, as in Rank's stable ascending sort.
func (p *LRU) FirstIn(set int, ways uint64) int {
	stamp := p.stamp[set*p.ways : (set+1)*p.ways]
	best := -1
	var bestStamp uint64
	for m := inWays(ways, p.ways); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if s := stamp[w]; best < 0 || s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

var _ Policy = (*LRU)(nil)

// Promote implements Policy: move to MRU.
func (p *LRU) Promote(set, way int) { p.touch(set, way) }
