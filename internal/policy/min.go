package policy

import "math"

// Oracle supplies future knowledge of the global L1 access stream to the
// offline MIN policy. Positions index the canonical interleaved stream of L1
// accesses (see trace.CanonicalStream).
type Oracle interface {
	// NextUse returns the position of the first access to block addr
	// strictly after position after, or math.MaxUint64 when the block is
	// never accessed again.
	NextUse(addr uint64, after uint64) uint64
}

// StreamOracle is an Oracle backed by a fully materialized access stream.
type StreamOracle struct {
	positions map[uint64][]uint64 // block address -> sorted access positions
}

// NewStreamOracle indexes a canonical stream of block addresses; the i-th
// element of stream is the block accessed at position i.
func NewStreamOracle(stream []uint64) *StreamOracle {
	pos := make(map[uint64][]uint64)
	for i, a := range stream {
		pos[a] = append(pos[a], uint64(i))
	}
	return &StreamOracle{positions: pos}
}

// NextUse implements Oracle. The binary search is hand-rolled: a
// sort.Search closure would capture ps and after, and the fill path
// that consults the oracle must stay allocation-free.
func (o *StreamOracle) NextUse(addr, after uint64) uint64 {
	ps := o.positions[addr]
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid] <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ps) {
		return math.MaxUint64
	}
	return ps[lo]
}

// MIN implements Belady's offline optimal replacement: the victim is the
// resident block whose next use in the global L1 access stream is furthest in
// the future. As the paper notes (footnote 2), the L1 stream — not the
// LLC-filtered stream — is the correct MIN input for an inclusive LLC,
// because inclusion victims would otherwise perturb the LLC stream.
type MIN struct {
	rankBuf
	ways    int
	oracle  Oracle
	addr    []uint64 // block address per (set, way)
	valid   []bool
	now     uint64 // most recent global stream position observed
	nextUse []uint64
}

// NewMIN returns the offline MIN policy driven by the given oracle.
func NewMIN(oracle Oracle) *MIN { return &MIN{oracle: oracle} }

// Init implements Policy.
func (p *MIN) Init(sets, ways int) {
	p.ways = ways
	p.addr = make([]uint64, sets*ways)
	p.valid = make([]bool, sets*ways)
	p.nextUse = make([]uint64, ways)
	p.grow(ways)
}

func (p *MIN) observe(set, way int, m Meta) {
	i := set*p.ways + way
	p.addr[i] = m.Addr
	p.valid[i] = true
	if m.Pos > p.now {
		p.now = m.Pos
	}
}

// OnHit implements Policy.
func (p *MIN) OnHit(set, way int, m Meta) { p.observe(set, way, m) }

// OnFill implements Policy.
func (p *MIN) OnFill(set, way int, m Meta) { p.observe(set, way, m) }

// OnEvict implements Policy.
func (p *MIN) OnEvict(set, way int) { p.valid[set*p.ways+way] = false }

// OnInvalidate implements Policy.
func (p *MIN) OnInvalidate(set, way int) { p.valid[set*p.ways+way] = false }

// Rank implements Policy: descending next-use distance from the current
// global stream position (furthest-future first). Never-reused blocks rank
// first; invalid ways rank last (the substrate fills them directly anyway).
func (p *MIN) Rank(set int) []int {
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		i := base + w
		if !p.valid[i] {
			p.nextUse[w] = 0 // invalid: most-imminent, ranks last
			continue
		}
		p.nextUse[w] = p.oracle.NextUse(p.addr[i], p.now)
	}
	out := p.take(p.ways)
	for w := 0; w < p.ways; w++ {
		out[w] = w
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && p.nextUse[out[j]] > p.nextUse[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Victim implements Policy: the way in ways whose next use lies furthest
// in the future (invalid ways query as most-imminent), ties broken by way
// index, as in Rank's stable descending sort.
func (p *MIN) Victim(set int, ways uint64) int {
	base := set * p.ways
	best := -1
	var bestNU uint64
	for w, valid := range p.valid[base : base+p.ways] {
		if ways>>uint(w)&1 == 0 {
			continue
		}
		var nu uint64
		if valid {
			nu = p.oracle.NextUse(p.addr[base+w], p.now)
		}
		if best < 0 || nu > bestNU {
			best, bestNU = w, nu
		}
	}
	return best
}

var _ Policy = (*MIN)(nil)

// Promote implements Policy: MIN ranks purely by future use; promotion is a
// no-op.
func (p *MIN) Promote(int, int) {}
