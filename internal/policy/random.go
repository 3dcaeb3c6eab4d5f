package policy

import "math/bits"

// Random implements pseudo-random replacement with a deterministic xorshift
// sequence, so simulations remain reproducible.
type Random struct {
	rankBuf
	sets, ways int
	state      uint64
}

// NewRandom returns a random-replacement policy seeded deterministically.
func NewRandom(seed uint64) *Random {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Random{state: seed}
}

// Name implements Policy.
func (p *Random) Name() string { return "Random" }

// Init implements Policy.
func (p *Random) Init(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.grow(ways)
}

// OnHit implements Policy.
func (p *Random) OnHit(int, int, Meta) {}

// OnFill implements Policy.
func (p *Random) OnFill(int, int, Meta) {}

// OnEvict implements Policy.
func (p *Random) OnEvict(int, int) {}

// OnInvalidate implements Policy.
func (p *Random) OnInvalidate(int, int) {}

func (p *Random) next() uint64 {
	x := p.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.state = x
	return x
}

// Rank implements Policy: a random rotation of the ways.
func (p *Random) Rank(set int) []int {
	out := p.take(p.ways)
	start := int(p.next() % uint64(p.ways))
	for i := 0; i < p.ways; i++ {
		out[i] = (start + i) % p.ways
	}
	return out
}

// FirstIn implements Policy: Rank's draw picks the rotation start, and the
// first way of ways at or after it (wrapping) is returned.
func (p *Random) FirstIn(_ int, ways uint64) int {
	start := uint(p.next() % uint64(p.ways))
	m := inWays(ways, p.ways)
	if hi := m >> start; hi != 0 {
		return int(start) + bits.TrailingZeros64(hi)
	}
	if m != 0 {
		return bits.TrailingZeros64(m)
	}
	return -1
}

var _ Policy = (*Random)(nil)

// Promote implements Policy: random replacement keeps no recency state.
func (p *Random) Promote(int, int) {}
