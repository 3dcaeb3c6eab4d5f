package policy

// SRRIP implements static re-reference interval prediction (Jaleel et al.,
// ISCA 2010) with the paper-standard 2-bit RRPVs. Fills insert at long
// re-reference (max-1), hits promote to 0, and victim selection ages the set
// until some block reaches the distant-future value.
type SRRIP struct {
	rankBuf
	ways int
	rrpv []int
}

// srripMaxRRPV is the distant-future value of a 2-bit RRPV.
const srripMaxRRPV = 3

// NewSRRIP returns a 2-bit SRRIP policy.
func NewSRRIP() *SRRIP { return &SRRIP{} }

// Init implements Policy.
func (p *SRRIP) Init(sets, ways int) {
	p.ways = ways
	p.rrpv = make([]int, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = srripMaxRRPV
	}
	p.grow(ways)
}

// OnHit implements Policy: promote to near-immediate re-reference.
func (p *SRRIP) OnHit(set, way int, _ Meta) { p.rrpv[set*p.ways+way] = 0 }

// OnFill implements Policy: insert with long re-reference interval.
func (p *SRRIP) OnFill(set, way int, _ Meta) { p.rrpv[set*p.ways+way] = srripMaxRRPV - 1 }

// OnEvict implements Policy.
func (p *SRRIP) OnEvict(set, way int) { p.rrpv[set*p.ways+way] = srripMaxRRPV }

// OnInvalidate implements Policy.
func (p *SRRIP) OnInvalidate(set, way int) { p.rrpv[set*p.ways+way] = srripMaxRRPV }

// Rank implements Policy: descending RRPV (ties broken by way index). The
// aging step of the canonical algorithm (incrementing all RRPVs until one
// reaches max) is applied as a side effect so that subsequent fills observe
// the aged state, matching hardware behaviour.
func (p *SRRIP) Rank(set int) []int {
	rrpv := p.age(set)
	out := p.take(p.ways)
	for w := 0; w < p.ways; w++ {
		out[w] = w
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rrpv[out[j]] > rrpv[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FirstIn implements Policy: after Rank's aging step, the way in ways with
// the highest RRPV, ties broken by way index.
func (p *SRRIP) FirstIn(set int, ways uint64) int {
	return firstMaxIn(p.age(set), ways)
}

// age applies the canonical aging step every victim query performs: all
// RRPVs of set rise together until one reaches the distant-future value.
// It returns the set's RRPV slice.
func (p *SRRIP) age(set int) []int {
	rrpv := p.rrpv[set*p.ways : (set+1)*p.ways]
	maxSeen := 0
	for _, r := range rrpv {
		if r > maxSeen {
			maxSeen = r
		}
	}
	if delta := srripMaxRRPV - maxSeen; delta > 0 {
		for w := range rrpv {
			rrpv[w] += delta
		}
	}
	return rrpv
}

// RRPV implements RRPVer.
func (p *SRRIP) RRPV(set, way int) int { return p.rrpv[set*p.ways+way] }

// MaxRRPV implements RRPVer.
func (p *SRRIP) MaxRRPV() int { return srripMaxRRPV }

var (
	_ Policy = (*SRRIP)(nil)
	_ RRPVer = (*SRRIP)(nil)
)

// Promote implements Policy: set near-immediate re-reference.
func (p *SRRIP) Promote(set, way int) { p.rrpv[set*p.ways+way] = 0 }
