package policy

import "math/bits"

// NRU implements not-recently-used replacement with one reference bit per
// way, the policy the paper configures for the sparse directory ("1-bit
// NRU"). When every bit in a set becomes 1, all bits except the one just
// referenced are cleared.
type NRU struct {
	rankBuf
	sets, ways int
	ref        []bool
}

// NewNRU returns a 1-bit NRU policy.
func NewNRU() *NRU { return &NRU{} }

// Init implements Policy.
func (p *NRU) Init(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.ref = make([]bool, sets*ways)
	p.grow(ways)
}

func (p *NRU) touch(set, way int) {
	base := set * p.ways
	p.ref[base+way] = true
	for w := 0; w < p.ways; w++ {
		if !p.ref[base+w] {
			return
		}
	}
	for w := 0; w < p.ways; w++ {
		p.ref[base+w] = w == way
	}
}

// OnHit implements Policy.
func (p *NRU) OnHit(set, way int, _ Meta) { p.touch(set, way) }

// OnFill implements Policy.
func (p *NRU) OnFill(set, way int, _ Meta) { p.touch(set, way) }

// OnEvict implements Policy.
func (p *NRU) OnEvict(set, way int) { p.ref[set*p.ways+way] = false }

// OnInvalidate implements Policy.
func (p *NRU) OnInvalidate(set, way int) { p.ref[set*p.ways+way] = false }

// Rank implements Policy: unreferenced ways first (ascending way index
// within each class, making the order deterministic).
func (p *NRU) Rank(set int) []int {
	out := p.take(p.ways)
	base := set * p.ways
	n := 0
	for w := 0; w < p.ways; w++ {
		if !p.ref[base+w] {
			out[n] = w
			n++
		}
	}
	for w := 0; w < p.ways; w++ {
		if p.ref[base+w] {
			out[n] = w
			n++
		}
	}
	return out
}

// FirstIn implements Policy: the lowest unreferenced way in ways, else the
// lowest way in ways, following Rank's two-class order.
func (p *NRU) FirstIn(set int, ways uint64) int {
	m := inWays(ways, p.ways)
	if m == 0 {
		return -1
	}
	ref := p.ref[set*p.ways : (set+1)*p.ways]
	for r := m; r != 0; r &= r - 1 {
		if w := bits.TrailingZeros64(r); !ref[w] {
			return w
		}
	}
	return bits.TrailingZeros64(m)
}

var _ Policy = (*NRU)(nil)

// Promote implements Policy: mark referenced.
func (p *NRU) Promote(set, way int) { p.touch(set, way) }
