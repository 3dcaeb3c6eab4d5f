package policy

// LRU implements true least-recently-used replacement using per-way
// timestamps. Victim ranking is oldest-first.
type LRU struct {
	rankBuf
	ways  int
	stamp []uint64 // sets*ways access timestamps; 0 = never touched
	clock uint64
}

// NewLRU returns a true-LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Init implements Policy.
func (p *LRU) Init(sets, ways int) {
	p.ways = ways
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

// Victim implements Policy: the way in ways with the smallest timestamp,
// ties broken by lowest way index, as in Rank's stable ascending sort. A way
// outside ways keys as ^uint64(0), which no stamp reaches (the clock counts
// touches), so the loop compiles to conditional moves, not mask branches.
func (p *LRU) Victim(set int, ways uint64) int {
	best, bestKey := -1, ^uint64(0)
	for w, s := range p.stamp[set*p.ways : (set+1)*p.ways] {
		if k := s | (ways&1 - 1); k < bestKey {
			best, bestKey = w, k
		}
		ways >>= 1
	}
	return best
}

var _ Policy = (*LRU)(nil)

// Promote implements Policy: move to MRU.
func (p *LRU) Promote(set, way int) { p.touch(set, way) }
