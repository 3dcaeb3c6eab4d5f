// Package cache provides the set-associative tag store of the private L1
// and L2 caches: address mapping, tag storage, and the low-level way
// operations (lookup, fill, evict, invalidate) the hierarchy drives. The
// shared LLC keeps its own banks in internal/core.
//
// The package deliberately stores only tag-array state. Data payloads are not
// simulated; the simulator tracks dirtiness and block identity, which is all
// the paper's metrics (misses, inclusion victims, relocations, energy events)
// require.
package cache

import (
	"fmt"
	"math/bits"

	"zivsim/internal/policy"
)

// BlockBits is the log2 of the simulated cache block size. The paper uses
// 64-byte blocks throughout.
const BlockBits = 6

// BlockBytes is the simulated cache block size in bytes.
const BlockBytes = 1 << BlockBits

// BlockAddr converts a byte address to a block address.
func BlockAddr(byteAddr uint64) uint64 { return byteAddr >> BlockBits }

// Block is one tag-array entry. Payload data is not simulated.
type Block struct {
	Valid bool
	Dirty bool
	// Writable mirrors the MESI M/E privilege for private-cache lines: a
	// store may complete locally only when the line is writable. The shared
	// LLC ignores this field (write permission lives in the directory).
	Writable bool
	// Addr is the block address (byte address >> BlockBits) of the cached
	// block. Valid only when Valid is true.
	Addr uint64
}

// Cache is a set-associative tag store with a pluggable replacement policy.
type Cache struct {
	name    string // for panic messages
	sets    int
	ways    int
	setMask uint64
	// blocks is the primary tag store. sidecarsync enforces that every
	// whole-element write also refreshes the tag sidecar and the valid
	// count on every subsequent path.
	//
	//ziv:mirror(tags,validCnt)
	blocks []Block // sets*ways, row-major by set
	// tags mirrors blocks for the hot lookup path: the block address of a
	// valid way, tagNone otherwise. Scanning a contiguous []uint64 touches
	// one cache line per 8 ways instead of striding over Block structs.
	// Maintained by FillWay/EvictWay/Invalidate.
	tags []uint64
	// mru holds the last way hit or filled per set: the first probe of
	// Lookup. A stale hint is harmless (the tag comparison decides).
	mru []int32
	// validCnt counts valid ways per set so InvalidWay answers "-1" (the
	// steady-state case after warmup) without scanning.
	validCnt []uint16
	pol      policy.Policy

	// Stats accumulates the event counters for this cache instance.
	Stats Stats
}

// tagNone marks an invalid way in the tag sidecar; it lies outside the
// 48-bit physical block-address space so it can never match a real block.
const tagNone = ^uint64(0)

// Stats holds per-cache event counters.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64 // replacement-driven evictions of valid blocks
	DirtyEvicts uint64
	Invals      uint64 // externally forced invalidations (back-invals, coherence)
}

// New builds a cache with the given geometry. sets must be a power of two and
// ways positive.
func New(name string, sets, ways int, pol policy.Policy) *Cache {
	if sets <= 0 || bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two, got %d", name, sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive, got %d", name, ways))
	}
	pol.Init(sets, ways)
	tags := make([]uint64, sets*ways)
	for i := range tags {
		tags[i] = tagNone
	}
	return &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		setMask:  uint64(sets - 1),
		blocks:   make([]Block, sets*ways),
		tags:     tags,
		mru:      make([]int32, sets),
		validCnt: make([]uint16, sets),
		pol:      pol,
	}
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetIndex maps a block address to its set index.
func (c *Cache) SetIndex(blockAddr uint64) int {
	return int(blockAddr & c.setMask)
}

// Block returns a pointer to the tag entry at (set, way). The pointer is
// valid until the next structural change; callers must not retain it.
// Writes through it inherit the blocks field's sidecar obligations.
//
//ziv:aliases(blocks)
func (c *Cache) Block(set, way int) *Block {
	return &c.blocks[set*c.ways+way]
}

// Lookup finds blockAddr without updating replacement state. It returns the
// way and true on a hit. The MRU way of the set is probed first (most hits
// land there), then the tag sidecar is scanned contiguously.
//
//ziv:noalloc
func (c *Cache) Lookup(blockAddr uint64) (way int, hit bool) {
	set := c.SetIndex(blockAddr)
	base := set * c.ways
	if w := int(c.mru[set]); c.tags[base+w] == blockAddr {
		return w, true
	}
	tags := c.tags[base : base+c.ways]
	for w, t := range tags {
		if t == blockAddr {
			return w, true
		}
	}
	return -1, false
}

// Contains reports whether blockAddr is cached.
func (c *Cache) Contains(blockAddr uint64) bool {
	_, hit := c.Lookup(blockAddr)
	return hit
}

// Access performs a full access: on a hit it updates the replacement state
// (and dirtiness for writes) and returns the way with hit=true; on a miss it
// only counts the miss. It never fills — the caller decides fill policy.
//
//ziv:noalloc
func (c *Cache) Access(blockAddr uint64, write bool, m policy.Meta) (way int, hit bool) {
	c.Stats.Accesses++
	way, hit = c.Lookup(blockAddr)
	if !hit {
		c.Stats.Misses++
		return -1, false
	}
	c.Stats.Hits++
	set := c.SetIndex(blockAddr)
	b := c.Block(set, way)
	if write {
		b.Dirty = true
	}
	c.pol.OnHit(set, way, m)
	c.mru[set] = int32(way)
	return way, true
}

// InvalidWay returns an invalid way in set, or -1 when the set is full.
// Full sets (the steady state) answer from the per-set valid count.
//
//ziv:noalloc
func (c *Cache) InvalidWay(set int) int {
	if int(c.validCnt[set]) == c.ways {
		return -1
	}
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tagNone {
			return w
		}
	}
	return -1
}

// Victim returns the policy's top victim way for set.
func (c *Cache) Victim(set int) int {
	return c.pol.Victim(set)
}

// FillWay inserts blockAddr at an exact (set, way), which must be invalid.
//
//ziv:noalloc
func (c *Cache) FillWay(set, way int, blockAddr uint64, dirty, writable bool, m policy.Meta) {
	b := c.Block(set, way)
	if b.Valid {
		panic(fmt.Sprintf("cache %s: FillWay into valid way (set %d way %d)", c.name, set, way))
	}
	if got := c.SetIndex(blockAddr); got != set {
		panic(fmt.Sprintf("cache %s: FillWay set mismatch: block %#x maps to set %d, not %d", c.name, blockAddr, got, set))
	}
	*b = Block{Valid: true, Dirty: dirty, Writable: writable, Addr: blockAddr}
	c.tags[set*c.ways+way] = blockAddr
	c.validCnt[set]++
	c.mru[set] = int32(way)
	c.Stats.Fills++
	c.pol.OnFill(set, way, m)
}

// EvictWay removes the valid block at (set, way) as a replacement decision
// and returns it. The policy's OnEvict hook runs (e.g. Hawkeye detraining).
//
//ziv:noalloc
func (c *Cache) EvictWay(set, way int) Block {
	b := c.Block(set, way)
	if !b.Valid {
		panic(fmt.Sprintf("cache %s: EvictWay on invalid way (set %d way %d)", c.name, set, way))
	}
	evicted := *b
	c.Stats.Evictions++
	if b.Dirty {
		c.Stats.DirtyEvicts++
	}
	c.pol.OnEvict(set, way)
	*b = Block{}
	c.tags[set*c.ways+way] = tagNone
	c.validCnt[set]--
	return evicted
}

// Invalidate removes blockAddr if present (an externally forced removal, not
// a replacement decision) and returns the removed entry.
//
//ziv:noalloc
func (c *Cache) Invalidate(blockAddr uint64) (removed Block, ok bool) {
	way, hit := c.Lookup(blockAddr)
	if !hit {
		return Block{}, false
	}
	set := c.SetIndex(blockAddr)
	removed = *c.Block(set, way)
	c.Stats.Invals++
	c.pol.OnInvalidate(set, way)
	*c.Block(set, way) = Block{}
	c.tags[set*c.ways+way] = tagNone
	c.validCnt[set]--
	return removed, true
}

// ForEachValid calls fn for every valid block.
func (c *Cache) ForEachValid(fn func(set, way int, b Block)) {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			b := c.blocks[s*c.ways+w]
			if b.Valid {
				fn(s, w, b)
			}
		}
	}
}
