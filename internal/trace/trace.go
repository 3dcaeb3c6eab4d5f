// Package trace generates the synthetic per-core memory reference streams
// that stand in for the paper's SPEC CPU 2017 / PARSEC / TPC-E workloads
// (see DESIGN.md §4 for the substitution rationale). Generators are
// deterministic given a seed, infinite, and resettable — the MIN oracle and
// the simulator need two identical passes over the same stream.
package trace

// Ref is one memory reference of a core's instruction stream.
type Ref struct {
	// PC is the synthetic program counter of the access; replacement
	// policies such as Hawkeye learn per-PC behaviour from it.
	PC uint64
	// Addr is the byte address accessed.
	Addr uint64
	// Write marks stores.
	Write bool
	// Gap is the number of non-memory instructions executed before this
	// reference (contributes Gap cycles and Gap instructions).
	Gap uint8
}

// Generator produces an infinite deterministic reference stream.
type Generator interface {
	// Next returns the next reference.
	Next() Ref
	// Reset rewinds the stream to its beginning.
	Reset()
}

// rng is a small xorshift64* generator; deterministic and fast.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

const blockBytes = 64

// common holds the parameters shared by the concrete generators.
type common struct {
	base      uint64 // address-space base (separates applications in a mix)
	pcBase    uint64
	writeFrac float64
	gapMean   int
	seed      uint64
	r         *rng
}

func (c *common) reset() { c.r = newRNG(c.seed) }

func (c *common) ref(offset uint64, pcIdx int) Ref {
	gap := c.gapMean
	if gap > 0 {
		gap = gap/2 + c.r.intn(gap+1) // mean ~= gapMean, deterministic jitter
	}
	if gap > 255 {
		gap = 255
	}
	return Ref{
		PC:    c.pcBase + uint64(pcIdx)*4,
		Addr:  c.base + offset,
		Write: c.r.float() < c.writeFrac,
		Gap:   uint8(gap),
	}
}

// Stream walks a region sequentially block by block, wrapping — the
// classic cache-averse streaming pattern (no reuse within any cache).
type Stream struct {
	common
	bytes uint64
	pos   uint64
}

// NewStream returns a streaming generator over a region of the given size.
func NewStream(base, bytes uint64, writeFrac float64, gapMean int, seed uint64) *Stream {
	g := &Stream{common: common{base: base, pcBase: 0x1000, writeFrac: writeFrac, gapMean: gapMean, seed: seed}, bytes: bytes}
	g.reset()
	return g
}

// Next implements Generator.
func (g *Stream) Next() Ref {
	r := g.ref(g.pos, 0)
	g.pos += blockBytes
	if g.pos >= g.bytes {
		g.pos = 0
	}
	return r
}

// Reset implements Generator.
func (g *Stream) Reset() { g.pos = 0; g.reset() }

// Circular cycles through N blocks in a fixed order: (B1 ... BN B1 ...).
// When N exceeds the capacity available to the application, LRU always
// misses while MIN/Hawkeye retain a subset — and the retained victims are
// recently used, which is precisely the paper's inclusion-victim driver
// (§I-A).
type Circular struct {
	common
	blocks uint64
	stride uint64
	pos    uint64
}

// NewCircular returns a circular generator over `blocks` cache blocks with
// the given stride in blocks (stride > 1 spreads the pattern across sets).
func NewCircular(base uint64, blocks, stride uint64, writeFrac float64, gapMean int, seed uint64) *Circular {
	if stride == 0 {
		stride = 1
	}
	g := &Circular{common: common{base: base, pcBase: 0x2000, writeFrac: writeFrac, gapMean: gapMean, seed: seed}, blocks: blocks, stride: stride}
	g.reset()
	return g
}

// Next implements Generator.
func (g *Circular) Next() Ref {
	r := g.ref(g.pos*g.stride*blockBytes, 0)
	g.pos++
	if g.pos >= g.blocks {
		g.pos = 0
	}
	return r
}

// Reset implements Generator.
func (g *Circular) Reset() { g.pos = 0; g.reset() }

// Hot models a working-set-bound application: most references target a hot
// region (with good temporal locality), the rest touch a cold region. The
// hot window can optionally drift slowly through a wider region, modelling
// the phase drift of real working sets (a permanently resident hot set is
// unrealistic and starves the coherence directory of reuse information).
type Hot struct {
	common
	hotBytes  uint64
	coldBytes uint64
	hotFrac   float64
	coldPos   uint64

	driftRefs int    // references between one-block window advances; 0 = static
	driftArea uint64 // region the window wanders over (>= hotBytes)
	winStart  uint64 // current window origin, in blocks
	sinceMove int
}

// NewHot returns a working-set generator: hotFrac of references go to the
// hot region uniformly, the remainder stream through the cold region.
func NewHot(base, hotBytes, coldBytes uint64, hotFrac, writeFrac float64, gapMean int, seed uint64) *Hot {
	g := &Hot{
		common:   common{base: base, pcBase: 0x3000, writeFrac: writeFrac, gapMean: gapMean, seed: seed},
		hotBytes: hotBytes, coldBytes: coldBytes, hotFrac: hotFrac,
	}
	g.reset()
	return g
}

// NewDriftingHot is NewHot with a hot window that advances one block every
// driftRefs references, wandering over a region twice the window size. The
// instantaneous working set stays hotBytes.
func NewDriftingHot(base, hotBytes, coldBytes uint64, hotFrac, writeFrac float64, gapMean, driftRefs int, seed uint64) *Hot {
	g := NewHot(base, hotBytes, coldBytes, hotFrac, writeFrac, gapMean, seed)
	g.driftRefs = driftRefs
	g.driftArea = 2 * hotBytes
	return g
}

// Next implements Generator.
func (g *Hot) Next() Ref {
	if g.driftRefs > 0 {
		g.sinceMove++
		if g.sinceMove >= g.driftRefs {
			g.sinceMove = 0
			g.winStart++
			if g.winStart >= g.driftArea/blockBytes {
				g.winStart = 0
			}
		}
	}
	if g.r.float() < g.hotFrac {
		block := uint64(g.r.intn(int(g.hotBytes / blockBytes)))
		if g.driftRefs > 0 {
			block = (g.winStart + block) % (g.driftArea / blockBytes)
			return g.ref(block*blockBytes, 0)
		}
		return g.ref(block*blockBytes, 0)
	}
	area := g.hotBytes
	if g.driftRefs > 0 {
		area = g.driftArea
	}
	r := g.ref(area+g.coldPos, 1)
	g.coldPos += blockBytes
	if g.coldPos >= g.coldBytes {
		g.coldPos = 0
	}
	return r
}

// Reset implements Generator.
func (g *Hot) Reset() { g.coldPos, g.winStart, g.sinceMove = 0, 0, 0; g.reset() }

// PointerChase walks a fixed pseudo-random permutation of a region,
// modelling dependent-load chains (low MLP, poor spatial locality, strong
// per-element reuse across rounds).
type PointerChase struct {
	common
	perm []uint32
	pos  uint32
}

// NewPointerChase builds a permutation over the region's blocks and walks it.
func NewPointerChase(base, bytes uint64, writeFrac float64, gapMean int, seed uint64) *PointerChase {
	n := int(bytes / blockBytes)
	if n < 2 {
		n = 2
	}
	g := &PointerChase{common: common{base: base, pcBase: 0x4000, writeFrac: writeFrac, gapMean: gapMean, seed: seed}}
	// Sattolo's algorithm: a single cycle through all blocks.
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	pr := newRNG(seed ^ 0xabcdef)
	for i := n - 1; i > 0; i-- {
		j := pr.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	g.perm = perm
	g.reset()
	return g
}

// Next implements Generator.
func (g *PointerChase) Next() Ref {
	r := g.ref(uint64(g.pos)*blockBytes, 0)
	g.pos = g.perm[g.pos]
	return r
}

// Reset implements Generator.
func (g *PointerChase) Reset() { g.pos = 0; g.reset() }

// Uniform touches a region uniformly at random — the memory-bound,
// low-locality extreme.
type Uniform struct {
	common
	bytes uint64
}

// NewUniform returns a uniform random generator over a region.
func NewUniform(base, bytes uint64, writeFrac float64, gapMean int, seed uint64) *Uniform {
	g := &Uniform{common: common{base: base, pcBase: 0x5000, writeFrac: writeFrac, gapMean: gapMean, seed: seed}, bytes: bytes}
	g.reset()
	return g
}

// Next implements Generator.
func (g *Uniform) Next() Ref {
	block := uint64(g.r.intn(int(g.bytes / blockBytes)))
	return g.ref(block*blockBytes, 0)
}

// Reset implements Generator.
func (g *Uniform) Reset() { g.reset() }

// Blend interleaves several sub-generators with fixed probabilities,
// modelling applications with mixed access behaviour.
type Blend struct {
	subs    []Generator
	weights []float64 // cumulative
	r       *rng
	seed    uint64
}

// NewBlend combines generators; weights need not be normalized.
func NewBlend(seed uint64, subs []Generator, weights []float64) *Blend {
	if len(subs) == 0 || len(subs) != len(weights) {
		panic("trace: Blend needs matching non-empty subs and weights")
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	return &Blend{subs: subs, weights: cum, r: newRNG(seed), seed: seed}
}

// Next implements Generator.
func (g *Blend) Next() Ref {
	x := g.r.float()
	for i, c := range g.weights {
		if x <= c {
			return g.subs[i].Next()
		}
	}
	return g.subs[len(g.subs)-1].Next()
}

// Reset implements Generator.
func (g *Blend) Reset() {
	g.r = newRNG(g.seed)
	for _, s := range g.subs {
		s.Reset()
	}
}

// Phased switches between sub-generators every phaseLen references,
// modelling program phase changes.
type Phased struct {
	subs     []Generator
	phaseLen int
	idx      int
	count    int
}

// NewPhased cycles through subs, phaseLen references each.
func NewPhased(subs []Generator, phaseLen int) *Phased {
	if len(subs) == 0 || phaseLen <= 0 {
		panic("trace: Phased needs subs and a positive phase length")
	}
	return &Phased{subs: subs, phaseLen: phaseLen}
}

// Next implements Generator.
func (g *Phased) Next() Ref {
	r := g.subs[g.idx].Next()
	g.count++
	if g.count >= g.phaseLen {
		g.count = 0
		g.idx = (g.idx + 1) % len(g.subs)
	}
	return r
}

// Reset implements Generator.
func (g *Phased) Reset() {
	g.idx, g.count = 0, 0
	for _, s := range g.subs {
		s.Reset()
	}
}

// CanonicalStream materializes the round-robin interleaved global L1 block-
// address stream of a set of cores, the MIN oracle input (paper footnote 2:
// the L1 stream is independent of LLC victim choices for a given schedule).
// Position p belongs to core p % len(gens), reference index p / len(gens).
// Generators are Reset before and after so the simulator replays the same
// streams.
func CanonicalStream(gens []Generator, refsPerCore int) []uint64 {
	for _, g := range gens {
		g.Reset()
	}
	out := make([]uint64, 0, len(gens)*refsPerCore)
	for i := 0; i < refsPerCore; i++ {
		for _, g := range gens {
			out = append(out, g.Next().Addr/blockBytes)
		}
	}
	for _, g := range gens {
		g.Reset()
	}
	return out
}
