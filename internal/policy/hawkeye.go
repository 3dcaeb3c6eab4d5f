package policy

// Hawkeye implements the Hawkeye replacement policy (Jain & Lin, ISCA 2016):
// an OPTgen structure reconstructs Belady-MIN decisions for a sample of sets
// and trains a PC-indexed predictor that classifies fills as cache-friendly
// or cache-averse; insertion and victim selection then follow RRIP with the
// predictor's classification.
//
// The implementation follows the paper's hardware budget in spirit: 3-bit
// RRPVs, a 3-bit-counter predictor table, set sampling, and an occupancy
// vector covering 8x-associativity time quanta per sampled set.
type Hawkeye struct {
	rankBuf
	ways int

	rrpv     []int
	friendly []bool
	pcOf     []uint64

	pred predictor

	sampleMask int // sets with set&sampleMask == 0 are sampled
	samplers   map[int]*optgenSet
}

const (
	hawkeyeMaxRRPV   = 7
	hawkeyePredBits  = 13 // 8192-entry predictor
	hawkeyePredSize  = 1 << hawkeyePredBits
	hawkeyeCtrMax    = 7 // 3-bit saturating counters
	hawkeyeCtrInit   = 4 // weakly friendly
	hawkeyeVectorLen = 8 // occupancy vector covers 8x associativity quanta
)

type predictor struct {
	ctr [hawkeyePredSize]uint8
}

func pcIndex(pc uint64) int {
	h := (pc >> 2) * 0x9e3779b97f4a7c15
	return int(h >> (64 - hawkeyePredBits))
}

func (p *predictor) friendly(pc uint64) bool { return p.ctr[pcIndex(pc)] >= hawkeyeCtrInit }

func (p *predictor) train(pc uint64, positive bool) {
	i := pcIndex(pc)
	if positive {
		if p.ctr[i] < hawkeyeCtrMax {
			p.ctr[i]++
		}
	} else if p.ctr[i] > 0 {
		p.ctr[i]--
	}
}

// optgenSet reconstructs MIN behaviour for one sampled set using the
// occupancy-vector formulation from the Hawkeye paper.
type optgenSet struct {
	capacity int
	length   int      // vector length in quanta
	occ      []uint16 // ring buffer of occupancy per quantum
	now      uint64   // current quantum (monotonic per-set access count)
	hist     map[uint64]optgenEntry
	// order is a fixed-size ring FIFO of tracked addresses for history
	// capacity management; a growable slice would reallocate on the
	// fill path.
	order   []uint64
	ordHead int // index of the oldest tracked address
	ordLen  int
}

type optgenEntry struct {
	last uint64
	pc   uint64
}

func newOptgenSet(ways int) *optgenSet {
	l := hawkeyeVectorLen * ways
	return &optgenSet{
		capacity: ways,
		length:   l,
		occ:      make([]uint16, l),
		hist:     make(map[uint64]optgenEntry, 2*l),
		order:    make([]uint64, 2*l+1),
	}
}

// access processes one access to the sampled set and returns the PC to
// train plus whether OPT would have hit, with trainable=false for cold
// (first-touch or aged-out) accesses.
func (o *optgenSet) access(addr, pc uint64) (trainPC uint64, optHit, trainable bool) {
	e, seen := o.hist[addr]
	if seen && o.now-e.last < uint64(o.length) {
		// Liveness interval [e.last, o.now): OPT hits iff every quantum in
		// the interval has spare capacity.
		hit := true
		for t := e.last; t < o.now; t++ {
			if o.occ[t%uint64(o.length)] >= uint16(o.capacity) {
				hit = false
				break
			}
		}
		if hit {
			for t := e.last; t < o.now; t++ {
				o.occ[t%uint64(o.length)]++
			}
		}
		trainPC, optHit, trainable = e.pc, hit, true
	}
	// Open a new usage interval at the current quantum.
	o.occ[o.now%uint64(o.length)] = 0 // reuse slot for the new quantum
	o.hist[addr] = optgenEntry{last: o.now, pc: pc}
	if !seen {
		o.order[(o.ordHead+o.ordLen)%len(o.order)] = addr
		o.ordLen++
		if o.ordLen > 2*o.length {
			drop := o.order[o.ordHead]
			o.ordHead = (o.ordHead + 1) % len(o.order)
			o.ordLen--
			if drop != addr {
				delete(o.hist, drop)
			}
		}
	}
	o.now++
	return trainPC, optHit, trainable
}

// NewHawkeye returns a Hawkeye policy that samples one set in
// sampleStride: the sets whose index is a multiple of it (a power of two;
// values below 1 mean 8). The hierarchy builds every Hawkeye LLC bank with
// stride 4, which samples 25% of its sets.
func NewHawkeye(sampleStride int) *Hawkeye {
	if sampleStride < 1 {
		sampleStride = 8
	}
	return &Hawkeye{sampleMask: sampleStride - 1}
}

// Init implements Policy.
func (p *Hawkeye) Init(sets, ways int) {
	p.ways = ways
	n := sets * ways
	p.rrpv = make([]int, n)
	p.friendly = make([]bool, n)
	p.pcOf = make([]uint64, n)
	for i := range p.rrpv {
		p.rrpv[i] = hawkeyeMaxRRPV
	}
	for i := range p.pred.ctr {
		p.pred.ctr[i] = hawkeyeCtrInit
	}
	// Samplers are built eagerly: the sampled sets are fixed by the
	// stride mask, and creating one lazily would allocate mid-fill.
	p.samplers = make(map[int]*optgenSet)
	for set := 0; set < sets; set++ {
		if set&p.sampleMask == 0 {
			p.samplers[set] = newOptgenSet(ways)
		}
	}
	p.grow(ways)
}

func (p *Hawkeye) sampler(set int) *optgenSet {
	if set&p.sampleMask != 0 {
		return nil
	}
	return p.samplers[set]
}

func (p *Hawkeye) train(set int, m Meta) {
	if s := p.sampler(set); s != nil {
		if pc, optHit, ok := s.access(m.Addr, m.PC); ok {
			p.pred.train(pc, optHit)
		}
	}
}

// OnHit implements Policy.
func (p *Hawkeye) OnHit(set, way int, m Meta) {
	p.train(set, m)
	i := set*p.ways + way
	fr := p.pred.friendly(m.PC)
	p.friendly[i] = fr
	p.pcOf[i] = m.PC
	if fr {
		p.rrpv[i] = 0
	} else {
		p.rrpv[i] = hawkeyeMaxRRPV
	}
}

// OnFill implements Policy.
func (p *Hawkeye) OnFill(set, way int, m Meta) {
	p.train(set, m)
	i := set*p.ways + way
	fr := p.pred.friendly(m.PC)
	p.friendly[i] = fr
	p.pcOf[i] = m.PC
	if fr {
		// Age the other cache-friendly lines, then insert at 0.
		base := set * p.ways
		for w := 0; w < p.ways; w++ {
			j := base + w
			if w != way && p.friendly[j] && p.rrpv[j] < hawkeyeMaxRRPV-1 {
				p.rrpv[j]++
			}
		}
		p.rrpv[i] = 0
	} else {
		p.rrpv[i] = hawkeyeMaxRRPV
	}
}

// OnEvict implements Policy: evicting a cache-friendly line means the
// predictor was wrong about its PC — detrain it. Only OnHit and OnFill
// mark a way friendly, and both record its PC.
func (p *Hawkeye) OnEvict(set, way int) {
	i := set*p.ways + way
	if p.friendly[i] {
		p.pred.train(p.pcOf[i], false)
	}
	p.clear(i)
}

// OnInvalidate implements Policy. Forced removals are not replacement
// mistakes, so no detraining happens.
func (p *Hawkeye) OnInvalidate(set, way int) { p.clear(set*p.ways + way) }

func (p *Hawkeye) clear(i int) {
	p.rrpv[i] = hawkeyeMaxRRPV
	p.friendly[i] = false
	p.pcOf[i] = 0
}

// Rank implements Policy: cache-averse lines (RRPV==7) first, then friendly
// lines by descending RRPV (oldest friendly first), ties by way index.
func (p *Hawkeye) Rank(set int) []int {
	out := p.take(p.ways)
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		out[w] = w
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && p.rrpv[base+out[j]] > p.rrpv[base+out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Victim implements Policy: the way in ways with the highest RRPV, ties
// broken by way index, as in Rank's stable descending sort.
func (p *Hawkeye) Victim(set int, ways uint64) int {
	return firstMaxIn(p.rrpv[set*p.ways:(set+1)*p.ways], ways)
}

// RRPV implements RRPVer.
func (p *Hawkeye) RRPV(set, way int) int { return p.rrpv[set*p.ways+way] }

// MaxRRPV implements RRPVer.
func (p *Hawkeye) MaxRRPV() int { return hawkeyeMaxRRPV }

var (
	_ Policy = (*Hawkeye)(nil)
	_ RRPVer = (*Hawkeye)(nil)
)

// Promote implements Policy: protect the line (RRPV 0) without touching the
// OPTgen sampler or predictor — QBS promotions are not program accesses.
func (p *Hawkeye) Promote(set, way int) { p.rrpv[set*p.ways+way] = 0 }
