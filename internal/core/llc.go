package core

import (
	"fmt"
	"math/bits"

	"zivsim/internal/char"
	"zivsim/internal/directory"
	"zivsim/internal/obs"
	"zivsim/internal/policy"
)

// Scheme selects the LLC victim-selection scheme.
type Scheme int

// Victim-selection schemes evaluated in the paper.
const (
	// SchemeBaseline is the unmodified replacement policy (used for both the
	// inclusive and non-inclusive baselines).
	SchemeBaseline Scheme = iota
	// SchemeQBS is query-based selection from the TLA study (Jaleel et al.,
	// MICRO 2010): privately cached victim candidates are promoted to MRU
	// and the search continues; if every candidate is privately cached, the
	// original baseline victim is evicted (generating inclusion victims).
	SchemeQBS
	// SchemeSHARP is the SHARP policy (Yan et al., ISCA 2017): prefer a
	// victim with no private copies, then one cached only by the requester,
	// then a random block.
	SchemeSHARP
	// SchemeCHARonBase picks a CHAR-inferred likely-dead block from the
	// target set when the baseline victim is privately cached, falling back
	// to the baseline victim (paper §V-A).
	SchemeCHARonBase
	// SchemeZIV is the paper's contribution: when the baseline victim is
	// privately cached it is relocated to another LLC set holding a block
	// that is not privately cached, guaranteeing zero inclusion victims.
	SchemeZIV
)

// String returns the scheme mnemonic.
func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "Baseline"
	case SchemeQBS:
		return "QBS"
	case SchemeSHARP:
		return "SHARP"
	case SchemeCHARonBase:
		return "CHARonBase"
	case SchemeZIV:
		return "ZIV"
	}
	return "?"
}

// Property selects the ZIV relocation-set property configuration (§III-D).
type Property int

// ZIV relocation-set properties.
const (
	PropNone Property = iota
	// PropNotInPrC: the set holds at least one block absent from all
	// private caches.
	PropNotInPrC
	// PropLRUNotInPrC: the set's LRU block is absent from private caches.
	PropLRUNotInPrC
	// PropLikelyDead: the set holds a CHAR-inferred dead block absent from
	// private caches (LikelyDeadNotInPrC in the paper).
	PropLikelyDead
	// PropMaxRRPVNotInPrC: the set holds a cache-averse (max-RRPV) block
	// absent from private caches.
	PropMaxRRPVNotInPrC
	// PropMaxRRPVLikelyDead: Hawkeye's averse classification combined with
	// CHAR's dead inference (MaxRRPVLikelyDeadNotInPrC in the paper).
	PropMaxRRPVLikelyDead
	// PropOracleNotInPrC implements the paper's §VI future-work direction:
	// the relocation victim is the NotInPrC block with the furthest next use
	// in the global access stream, computed with the offline MIN oracle over
	// a bounded number of candidate relocation sets. It upper-bounds what
	// relocation-set properties can achieve.
	PropOracleNotInPrC
)

// String returns the property mnemonic used in the paper's figures.
func (p Property) String() string {
	switch p {
	case PropNone:
		return "None"
	case PropNotInPrC:
		return "NotInPrC"
	case PropLRUNotInPrC:
		return "LRUNotInPrC"
	case PropLikelyDead:
		return "LikelyDead"
	case PropMaxRRPVNotInPrC:
		return "MRNotInPrC"
	case PropMaxRRPVLikelyDead:
		return "MRLikelyDead"
	case PropOracleNotInPrC:
		return "OracleNotInPrC"
	}
	return "?"
}

// level identifies one priority level of the relocation-set search order.
type level int

const (
	levInvalid level = iota
	levMaxRRPV
	levLRU
	levLikelyDead
	levNotInPrC
	numLevels
)

func (l level) String() string {
	switch l {
	case levInvalid:
		return "Invalid"
	case levMaxRRPV:
		return "MaxRRPVNotInPrC"
	case levLRU:
		return "LRUNotInPrC"
	case levLikelyDead:
		return "LikelyDeadNotInPrC"
	case levNotInPrC:
		return "NotInPrC"
	}
	return "?"
}

// levelsFor returns the relocation priority order for a property config,
// exactly as §III-D specifies.
func levelsFor(p Property) []level {
	switch p {
	case PropNotInPrC:
		return []level{levInvalid, levNotInPrC}
	case PropLRUNotInPrC:
		return []level{levInvalid, levLRU, levNotInPrC}
	case PropLikelyDead:
		return []level{levInvalid, levLikelyDead, levNotInPrC}
	case PropMaxRRPVNotInPrC:
		return []level{levInvalid, levMaxRRPV, levNotInPrC}
	case PropMaxRRPVLikelyDead:
		return []level{levInvalid, levMaxRRPV, levLikelyDead, levNotInPrC}
	case PropOracleNotInPrC:
		return []level{levInvalid, levNotInPrC}
	}
	return nil
}

// Block is one LLC tag entry with the ZIV state extensions.
type Block struct {
	Valid bool
	Dirty bool
	// Relocated marks a block living outside its home set (§III-C). A
	// relocated block is invisible to normal tag lookups; it is reached only
	// through its sparse-directory entry.
	Relocated bool
	// NotInPrC is the per-block state bit tracking absence from all private
	// caches (§III-D3).
	NotInPrC bool
	// LikelyDead is the CHAR-inferred dead bit (§III-D6). LikelyDead implies
	// NotInPrC.
	LikelyDead bool
	// CharGroup and EvictCore attribute a future recall to the CHAR group
	// and engine of the evicting core.
	CharGroup uint8
	EvictCore int16
	// Addr is the block address. For a relocated block, hardware would hold
	// only DirPtr in the repurposed tag; Addr is retained as a debug field
	// for invariant checking and statistics and is never used for lookups.
	Addr uint64
	// DirPtr locates the sparse-directory entry of a relocated block
	// (§III-C3); it is the content of the repurposed tag.
	DirPtr directory.Ptr
	// RelocDepth counts how many times this block has been relocated since
	// its fill (saturating). Observability metadata only: no victim-
	// selection decision reads it.
	RelocDepth uint8
}

// Config describes an LLC instance.
type Config struct {
	Banks       int
	SetsPerBank int
	Ways        int
	Scheme      Scheme
	Property    Property // required for SchemeZIV, PropNone otherwise
	// NewPolicy constructs one replacement policy instance per bank.
	NewPolicy func() policy.Policy
	// Thresholders, when non-nil, provides one CHAR dynamic-threshold
	// controller per bank (needed by LikelyDead properties).
	Thresholders []*char.BankThresholder
	// Oracle supplies future-knowledge victim ranking for
	// PropOracleNotInPrC (required by that property, ignored otherwise).
	Oracle policy.Oracle
	// FillCrossBank selects the paper's alternative cross-bank policy
	// (§III-D1): when the home bank has no eligible relocation set, the
	// *newly filled* block is placed in another bank as a relocated block
	// instead of moving the victim, keeping the home set's contents local.
	FillCrossBank bool
	// SelectLowest replaces the round-robin nextRS selection with
	// lowest-index selection — an ablation of Algorithm 1's fairness
	// rationale (§III-D1). Round-robin distributes the relocation load
	// uniformly; lowest-index concentrates it.
	SelectLowest bool
	// DebugChecks enables expensive internal invariant validation.
	DebugChecks bool
}

// Stats aggregates LLC event counters across banks.
type Stats struct {
	Hits   uint64
	Misses uint64
	Fills  uint64

	Evictions        uint64 // blocks leaving the LLC due to replacement
	DirtyWritebacks  uint64 // evicted blocks that were dirty
	InPrCEvictions   uint64 // evictions of privately cached blocks (inclusion-victim generators)
	ForcedInclusions uint64 // ZIV last-resort InPrC evictions (must stay 0)

	Relocations          uint64
	CrossBankRelocations uint64
	ReRelocations        uint64 // relocations of already-relocated blocks
	AlternateVictims     uint64 // in-place different-victim selections (no movement)
	RelocationsByLevel   [numLevels]uint64
	RelocatedInvalidated uint64 // relocated blocks invalidated at end of life
	RelocatedHits        uint64 // accesses served from relocated blocks

	QBSPromotions uint64
	SHARPFallback uint64 // SHARP stage-3 random victims

	// IntervalHist buckets relocation intervals per bank by
	// bits.Len64(cycles), for the Fig. 18 CDF: index 0 counts intervals of
	// 0 cycles and index b >= 1 those in [2^(b-1), 2^b), the last bucket
	// absorbing everything longer.
	IntervalHist [40]uint64
	FIFOMaxOcc   int // modeled relocation-FIFO high-water mark
}

// Reset clears every counter (end of warmup). The whole-struct assignment
// is the statreset-approved pattern: fields added later are zeroed too.
func (s *Stats) Reset() { *s = Stats{} }

// RelocTargetSkew summarizes how unevenly relocations land across sets: the
// ratio of the most-loaded set's relocation count to the mean across sets
// that received any (1.0 = perfectly uniform). It quantifies the fairness
// that Algorithm 1's round-robin nextRS provides (ablate with SelectLowest).
func (l *LLC) RelocTargetSkew() float64 {
	var max, total, nonzero uint64
	for i := range l.banks {
		for _, c := range l.banks[i].relocTargets {
			if c > 0 {
				total += uint64(c)
				nonzero++
				if uint64(c) > max {
					max = uint64(c)
				}
			}
		}
	}
	if nonzero == 0 {
		return 0
	}
	return float64(max) * float64(nonzero) / float64(total)
}

// LLC is the banked shared last-level cache.
type LLC struct {
	cfg      Config
	dir      *directory.Directory
	banks    []bank
	bankMask uint64
	setMask  uint64
	bankBits uint
	// allWays has one bit per way: a set whose valid mask equals it is
	// full, and the policy's Victim over it is the set's baseline victim.
	allWays  uint64
	levels   []level
	rngState uint64
	// oracleNow tracks the latest global stream position observed (Meta.Pos)
	// for the PropOracleNotInPrC property's next-use queries.
	oracleNow uint64
	// rankScratch holds a stable copy of a policy Rank order for the QBS and
	// SHARP victim walks, which promote ways mid-walk and so cannot iterate
	// the policy-owned slice directly. One reusable buffer avoids a per-miss
	// allocation.
	rankScratch []int
	// out is the outcome Fill hands back by pointer; every fill rewrites it,
	// so a miss copies no outcome record.
	out FillOutcome
	// obs is the attached event ring, nil when observability is off; every
	// probe point guards on it, so the detached cost is one branch.
	obs *obs.Ring

	Stats Stats
}

type bank struct {
	id int
	// blocks is the primary store. sidecarsync enforces the sidecars:
	// whole-element writes must refresh tags and masks, and writes to the
	// private-residency state must refresh masks and re-derive the
	// property vectors via updateSet.
	//
	//ziv:mirror(tags,masks)
	//ziv:mirror(masks,updateSet) on NotInPrC,LikelyDead
	//ziv:mirror(tags,masks) on Valid,Relocated,Addr
	blocks []Block
	// tags mirrors blocks for fast probing: the block address when the way
	// holds a valid non-relocated block, tagNone otherwise. Maintained by
	// the few mutation points and validated by CheckInvariants.
	tags []uint64
	// masks mirrors each set's blocks as way bitmasks (see wayMasks), so
	// the fill path and the property predicates never read a Block.
	// Validated by CheckInvariants.
	masks  []wayMasks
	pol    policy.Policy
	rrip   policy.RRPVer  // nil unless the policy exposes RRPVs
	pvs    [numLevels]*PV // only the configured levels are non-nil
	thresh *char.BankThresholder

	lastReloc     uint64
	everRelocated bool
	fifoOcc       float64
	relocTargets  []uint32 // per-set count of relocations landing in the set
}

// wayMasks holds one bit per way of a set for the block state the fill
// path and the relocation properties ask about: the way is valid (relocated
// blocks included); valid with no private copy (NotInPrC); and, of those,
// inferred dead by CHAR (LikelyDead).
type wayMasks struct {
	valid, notInPrC, dead uint64
}

// sync refreshes way's bits from its block b after a write to b.
//
//ziv:noalloc
func (m *wayMasks) sync(way int, b *Block) {
	bit := uint64(1) << uint(way)
	m.valid &^= bit
	m.notInPrC &^= bit
	m.dead &^= bit
	if !b.Valid {
		return
	}
	m.valid |= bit
	if b.NotInPrC {
		m.notInPrC |= bit
		if b.LikelyDead {
			m.dead |= bit
		}
	}
}

// New builds an LLC. dir may be nil only for SchemeBaseline/QBS/CHARonBase
// configurations that never consult sharer detail (SHARP and ZIV require it).
func New(cfg Config, dir *directory.Directory) *LLC {
	if cfg.Banks <= 0 || bits.OnesCount(uint(cfg.Banks)) != 1 {
		panic(fmt.Sprintf("core: banks must be a positive power of two, got %d", cfg.Banks))
	}
	if cfg.SetsPerBank <= 0 || bits.OnesCount(uint(cfg.SetsPerBank)) != 1 {
		panic(fmt.Sprintf("core: sets per bank must be a positive power of two, got %d", cfg.SetsPerBank))
	}
	if cfg.Ways <= 0 || cfg.Ways > 64 {
		panic(fmt.Sprintf("core: ways must be in [1, 64] (one mask bit per way), got %d", cfg.Ways))
	}
	if cfg.NewPolicy == nil {
		panic("core: NewPolicy is required")
	}
	if cfg.Scheme == SchemeZIV && cfg.Property == PropNone {
		panic("core: SchemeZIV requires a relocation property")
	}
	if (cfg.Scheme == SchemeZIV || cfg.Scheme == SchemeSHARP) && dir == nil {
		panic("core: ZIV and SHARP require the sparse directory")
	}
	l := &LLC{
		cfg:      cfg,
		dir:      dir,
		banks:    make([]bank, cfg.Banks),
		bankMask: uint64(cfg.Banks - 1),
		setMask:  uint64(cfg.SetsPerBank - 1),
		bankBits: uint(bits.TrailingZeros(uint(cfg.Banks))),
		allWays:  ^uint64(0) >> uint(64-cfg.Ways),
		levels:   levelsFor(cfg.Property),
		rngState: 0x2545f4914f6cdd1d,
	}
	l.rankScratch = make([]int, cfg.Ways)
	for i := range l.banks {
		b := &l.banks[i]
		b.id = i
		b.blocks = make([]Block, cfg.SetsPerBank*cfg.Ways)
		b.tags = make([]uint64, cfg.SetsPerBank*cfg.Ways)
		for j := range b.tags {
			b.tags[j] = tagNone
		}
		b.masks = make([]wayMasks, cfg.SetsPerBank)
		b.relocTargets = make([]uint32, cfg.SetsPerBank)
		b.pol = cfg.NewPolicy()
		b.pol.Init(cfg.SetsPerBank, cfg.Ways)
		b.rrip, _ = b.pol.(policy.RRPVer)
		for _, lev := range l.levels {
			b.pvs[lev] = NewPV(cfg.SetsPerBank)
			// Every set starts with all ways invalid.
			if lev == levInvalid {
				for s := 0; s < cfg.SetsPerBank; s++ {
					b.pvs[lev].Set(s, true)
				}
			}
		}
		if cfg.Thresholders != nil {
			b.thresh = cfg.Thresholders[i]
		}
	}
	// Validate policy capabilities against the configured property.
	if cfg.Scheme == SchemeZIV {
		switch cfg.Property {
		case PropLRUNotInPrC:
			if _, ok := l.banks[0].pol.(*policy.LRU); !ok {
				panic("core: LRUNotInPrC requires the LRU policy")
			}
		case PropMaxRRPVNotInPrC, PropMaxRRPVLikelyDead:
			if l.banks[0].rrip == nil {
				panic("core: MaxRRPV properties require an RRIP-family policy")
			}
		case PropOracleNotInPrC:
			if cfg.Oracle == nil {
				panic("core: OracleNotInPrC requires an oracle")
			}
		}
	}
	return l
}

// SetObserver attaches (or, with nil, detaches) the event ring the ZIV
// probe points record into.
func (l *LLC) SetObserver(r *obs.Ring) { l.obs = r }

// RelocationsLandedByBank fills dst (len = bank count) with the
// cumulative number of relocations that landed in each bank, for the
// interval sampler's per-bank track.
func (l *LLC) RelocationsLandedByBank(dst []uint64) {
	for i := range l.banks {
		var n uint64
		for _, c := range l.banks[i].relocTargets {
			n += uint64(c)
		}
		dst[i] = n
	}
}

// Config returns the LLC configuration.
func (l *LLC) Config() Config { return l.cfg }

// Sets returns the total set count across banks.
func (l *LLC) Sets() int { return l.cfg.Banks * l.cfg.SetsPerBank }

// SizeBytes returns the aggregate capacity.
func (l *LLC) SizeBytes() int { return l.cfg.Banks * l.cfg.SetsPerBank * l.cfg.Ways * 64 }

// BankOf maps a block address to its home bank.
func (l *LLC) BankOf(addr uint64) int { return int(addr & l.bankMask) }

// SetOf maps a block address to its set within the home bank.
func (l *LLC) SetOf(addr uint64) int { return int((addr >> l.bankBits) & l.setMask) }

// block returns the interior pointer for loc; writes through it inherit
// the blocks field's sidecar obligations.
//
//ziv:aliases(blocks)
func (l *LLC) block(loc directory.Location) *Block {
	return &l.banks[loc.Bank].blocks[loc.Set*l.cfg.Ways+loc.Way]
}

// BlockAt returns a copy of the block at loc (diagnostics and tests).
func (l *LLC) BlockAt(loc directory.Location) Block { return *l.block(loc) }

// tagNone marks a way with no probe-visible block (invalid or relocated);
// it is outside the 48-bit physical block-address space.
const tagNone = ^uint64(0)

// Probe locates addr's non-relocated copy without changing any state.
//
//ziv:noalloc
func (l *LLC) Probe(addr uint64) (loc directory.Location, hit bool) {
	bk := l.BankOf(addr)
	set := l.SetOf(addr)
	base := set * l.cfg.Ways
	tags := l.banks[bk].tags[base : base+l.cfg.Ways]
	for w, t := range tags {
		if t == addr {
			return directory.Location{Bank: bk, Set: set, Way: w}, true
		}
	}
	return directory.Location{}, false
}

// Access performs a lookup for a private-cache miss: on a hit the
// replacement state advances, the block is marked as privately cached again
// (NotInPrC and LikelyDead cleared) and stats update. Relocated blocks never
// hit here; the hierarchy reaches them through AccessRelocated after the
// directory lookup.
//
//ziv:noalloc
func (l *LLC) Access(addr uint64, m policy.Meta) (loc directory.Location, hit bool) {
	if m.Pos > l.oracleNow {
		l.oracleNow = m.Pos
	}
	loc, hit = l.Probe(addr)
	if !hit {
		l.Stats.Misses++
		return loc, false
	}
	l.Stats.Hits++
	bk := &l.banks[loc.Bank]
	bk.pol.OnHit(loc.Set, loc.Way, m)
	b := l.block(loc)
	b.NotInPrC = false
	b.LikelyDead = false
	b.EvictCore = -1
	bk.masks[loc.Set].sync(loc.Way, b)
	l.updateSet(bk, loc.Set)
	return loc, true
}

// AccessRelocated serves a private-cache miss from a relocated block at loc
// (found through the sparse directory). Replacement state of the relocation
// set advances, per §III-C1.
//
//ziv:noalloc
func (l *LLC) AccessRelocated(loc directory.Location, m policy.Meta) {
	bk := &l.banks[loc.Bank]
	b := l.block(loc)
	if l.cfg.DebugChecks && (!b.Valid || !b.Relocated) {
		panic(fmt.Sprintf("core: AccessRelocated at non-relocated block %+v", loc))
	}
	l.Stats.Hits++
	l.Stats.RelocatedHits++
	bk.pol.OnHit(loc.Set, loc.Way, m)
	l.updateSet(bk, loc.Set)
}

// MarkNotInPrC records that the last private copy of addr left the private
// caches (eviction notice or writeback, §III-D3/D6). dirty merges writeback
// data into the LLC copy; dead sets the CHAR LikelyDead inference with its
// group and evicting core for recall attribution. It returns false when the
// block has no (non-relocated) LLC copy — possible only for non-inclusive
// configurations.
//
//ziv:noalloc
func (l *LLC) MarkNotInPrC(addr uint64, dirty, dead bool, group uint8, core int) bool {
	loc, ok := l.Probe(addr)
	if !ok {
		return false
	}
	bk := &l.banks[loc.Bank]
	b := l.block(loc)
	if dirty {
		b.Dirty = true
	}
	b.NotInPrC = true
	b.LikelyDead = dead
	b.CharGroup = group
	b.EvictCore = int16(core)
	bk.masks[loc.Set].sync(loc.Way, b)
	l.updateSet(bk, loc.Set)
	return true
}

// MarkDirty merges writeback data into addr's LLC copy without changing the
// private-residency state (an L2 dirty eviction while the L1 still holds the
// block).
//
//ziv:noalloc
func (l *LLC) MarkDirty(addr uint64) bool {
	loc, ok := l.Probe(addr)
	if !ok {
		return false
	}
	l.block(loc).Dirty = true
	return true
}

// MarkDirtyAt merges writeback data into the (relocated) block at loc.
func (l *LLC) MarkDirtyAt(loc directory.Location) { l.block(loc).Dirty = true }

// SetDirPtr retargets the tag-encoded directory pointer of the relocated
// block at loc (the ZeroDEV protocol moves directory entries, so the
// repurposed tag must follow, §III-F).
//
//ziv:noalloc
func (l *LLC) SetDirPtr(loc directory.Location, ptr directory.Ptr) {
	b := l.block(loc)
	if l.cfg.DebugChecks && (!b.Valid || !b.Relocated) {
		panic(fmt.Sprintf("core: SetDirPtr at non-relocated block %+v", loc))
	}
	b.DirPtr = ptr
}

// InvalidateRelocated ends the life of the relocated block at loc (its last
// private copy left, or its directory entry was evicted). It returns whether
// the block was dirty, in which case the hierarchy sends the data to the
// memory controller (§III-C2).
//
//ziv:noalloc
func (l *LLC) InvalidateRelocated(loc directory.Location) (dirty bool) {
	bk := &l.banks[loc.Bank]
	b := l.block(loc)
	if l.cfg.DebugChecks && (!b.Valid || !b.Relocated) {
		panic(fmt.Sprintf("core: InvalidateRelocated at non-relocated block %+v", loc))
	}
	dirty = b.Dirty
	bk.pol.OnInvalidate(loc.Set, loc.Way)
	*b = Block{}
	bk.tags[loc.Set*l.cfg.Ways+loc.Way] = tagNone
	bk.masks[loc.Set].sync(loc.Way, b)
	l.Stats.RelocatedInvalidated++
	l.updateSet(bk, loc.Set)
	return dirty
}

// Invalidate removes addr's non-relocated copy (used by non-inclusive
// configurations when coherence requires it). It returns presence and
// dirtiness.
//
//ziv:noalloc
func (l *LLC) Invalidate(addr uint64) (present, dirty bool) {
	loc, ok := l.Probe(addr)
	if !ok {
		return false, false
	}
	bk := &l.banks[loc.Bank]
	b := l.block(loc)
	dirty = b.Dirty
	bk.pol.OnInvalidate(loc.Set, loc.Way)
	*b = Block{}
	bk.tags[loc.Set*l.cfg.Ways+loc.Way] = tagNone
	bk.masks[loc.Set].sync(loc.Way, b)
	l.updateSet(bk, loc.Set)
	return true, dirty
}

// setSatisfies evaluates one relocation-set property for (bank, set) from
// the set's way masks; only the LRU and MaxRRPV properties consult the
// policy. LRU asks Victim, which is the LRU way and has no side effect on
// LRU; MaxRRPV reads the RRPVs of ways with no private copy.
//
//ziv:noalloc
func (l *LLC) setSatisfies(bk *bank, set int, lev level) bool {
	m := &bk.masks[set]
	switch lev {
	case levInvalid:
		return m.valid != l.allWays
	case levNotInPrC:
		return m.notInPrC != 0
	case levLikelyDead:
		return m.dead != 0
	case levLRU:
		return m.notInPrC != 0 && m.notInPrC>>uint(bk.pol.Victim(set, l.allWays))&1 != 0
	case levMaxRRPV:
		max := bk.rrip.MaxRRPV()
		for n := m.notInPrC; n != 0; n &= n - 1 {
			if bk.rrip.RRPV(set, bits.TrailingZeros64(n)) == max {
				return true
			}
		}
	}
	return false
}

// updateSet recomputes every configured property bit of (bank, set). Called
// after any mutation of the set's blocks or replacement state, once the
// set's way masks are current.
//
//ziv:noalloc
func (l *LLC) updateSet(bk *bank, set int) {
	for _, lev := range l.levels {
		bk.pvs[lev].Set(set, l.setSatisfies(bk, set, lev))
	}
}

// invalidWay returns the lowest invalid way in (bank, set) or -1.
//
//ziv:noalloc
func (l *LLC) invalidWay(bk *bank, set int) int {
	free := l.allWays &^ bk.masks[set].valid
	if free == 0 {
		return -1
	}
	return bits.TrailingZeros64(free)
}

func (l *LLC) rand() uint64 {
	x := l.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rngState = x
	return x
}

// ValidCount returns the number of valid blocks across all banks.
func (l *LLC) ValidCount() int {
	n := 0
	for i := range l.banks {
		for j := range l.banks[i].blocks {
			if l.banks[i].blocks[j].Valid {
				n++
			}
		}
	}
	return n
}

// ForEachValid visits every valid block.
func (l *LLC) ForEachValid(fn func(loc directory.Location, b Block)) {
	for i := range l.banks {
		for s := 0; s < l.cfg.SetsPerBank; s++ {
			for w := 0; w < l.cfg.Ways; w++ {
				b := l.banks[i].blocks[s*l.cfg.Ways+w]
				if b.Valid {
					fn(directory.Location{Bank: i, Set: s, Way: w}, b)
				}
			}
		}
	}
}
