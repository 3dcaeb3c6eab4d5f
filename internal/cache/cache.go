// Package cache provides the set-associative tag store of the private L1
// and L2 caches: address mapping, tag storage, true-LRU replacement, and
// the low-level way operations (lookup, fill, evict, invalidate) the
// hierarchy drives. The shared LLC keeps its own banks in internal/core,
// and only the LLC consults the pluggable policies of internal/policy.
//
// The package deliberately stores only tag-array state. Data payloads are not
// simulated; the simulator tracks dirtiness and block identity, which is all
// the paper's metrics (misses, inclusion victims, relocations, energy events)
// require.
package cache

import (
	"fmt"
	"math/bits"
)

// BlockBits is the log2 of the simulated cache block size. The paper uses
// 64-byte blocks throughout.
const BlockBits = 6

// BlockBytes is the simulated cache block size in bytes.
const BlockBytes = 1 << BlockBits

// BlockAddr converts a byte address to a block address.
func BlockAddr(byteAddr uint64) uint64 { return byteAddr >> BlockBits }

// Block is a copy of one valid tag-array entry, as EvictWay, Invalidate and
// ForEachValid hand it out. Payload data is not simulated.
type Block struct {
	Dirty bool
	// Writable mirrors the MESI M/E privilege for private-cache lines: a
	// store may complete locally only when the line is writable.
	Writable bool
	// Addr is the block address (byte address >> BlockBits) of the cached
	// block.
	Addr uint64
}

// Per-way state bits in Cache.flags.
const (
	flagDirty uint8 = 1 << iota
	flagWritable
)

// Cache is a set-associative tag store with true-LRU replacement, kept as
// parallel per-way arrays (sets*ways, row-major by set).
type Cache struct {
	name    string // for panic messages
	ways    int
	setMask uint64
	// tags is the store: the block address of a valid way, tagNone
	// otherwise. Scanning a contiguous []uint64 touches one host cache line
	// per 8 ways.
	tags []uint64
	// flags holds each valid way's flagDirty and flagWritable bits; an
	// invalid way's bits are stale until FillWay overwrites them.
	flags []uint8
	// stamp holds each way's LRU timestamp: 0 for an invalid way, and a
	// clock value of at least 1 from the way's last fill or hit. So the
	// smallest stamp of a set names its first invalid way, or else its LRU
	// way.
	stamp []uint64
	clock uint64
	// mru holds the last way hit or filled per set: the first probe of
	// Lookup. A stale hint is harmless (the tag comparison decides).
	mru []int32
}

// tagNone marks an invalid way; it lies outside the 48-bit physical
// block-address space so it can never match a real block.
const tagNone = ^uint64(0)

// New builds a cache with the given geometry. sets must be a power of two and
// ways positive.
func New(name string, sets, ways int) *Cache {
	if sets <= 0 || bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two, got %d", name, sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive, got %d", name, ways))
	}
	tags := make([]uint64, sets*ways)
	for i := range tags {
		tags[i] = tagNone
	}
	return &Cache{
		name:    name,
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    tags,
		flags:   make([]uint8, sets*ways),
		stamp:   make([]uint64, sets*ways),
		mru:     make([]int32, sets),
	}
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetIndex maps a block address to its set index.
func (c *Cache) SetIndex(blockAddr uint64) int {
	return int(blockAddr & c.setMask)
}

// Lookup finds blockAddr without updating replacement state. It returns the
// way and true on a hit. The MRU way of the set is probed first (most hits
// land there), then the set's tags are scanned contiguously.
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

// touch makes (set, way) the set's most recently used way.
func (c *Cache) touch(set, way int) {
	c.clock++
	c.stamp[set*c.ways+way] = c.clock
	c.mru[set] = int32(way)
}

// Access performs a full access: on a hit it updates the LRU order (and
// dirtiness for writes) and returns the way with hit=true; on a miss it
// changes nothing. It never fills — the caller decides fill policy.
//
//ziv:noalloc
func (c *Cache) Access(blockAddr uint64, write bool) (way int, hit bool) {
	way, hit = c.Lookup(blockAddr)
	if !hit {
		return -1, false
	}
	set := c.SetIndex(blockAddr)
	if write {
		c.flags[set*c.ways+way] |= flagDirty
	}
	c.touch(set, way)
	return way, true
}

// Victim returns the way a fill into set takes: the first invalid way, or
// else the least recently used way (lowest index on ties). valid reports
// whether that way holds a block, which the caller must EvictWay before
// FillWay.
//
//ziv:noalloc
func (c *Cache) Victim(set int) (way int, valid bool) {
	stamp := c.stamp[set*c.ways : (set+1)*c.ways]
	best, bestStamp := 0, stamp[0]
	for w := 1; w < len(stamp); w++ {
		if s := stamp[w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best, bestStamp != 0
}

// FillWay inserts blockAddr at an exact (set, way), which must be invalid.
//
//ziv:noalloc
func (c *Cache) FillWay(set, way int, blockAddr uint64, dirty, writable bool) {
	i := set*c.ways + way
	if c.tags[i] != tagNone {
		panic(fmt.Sprintf("cache %s: FillWay into valid way (set %d way %d)", c.name, set, way))
	}
	if got := c.SetIndex(blockAddr); got != set {
		panic(fmt.Sprintf("cache %s: FillWay set mismatch: block %#x maps to set %d, not %d", c.name, blockAddr, got, set))
	}
	var f uint8
	if dirty {
		f |= flagDirty
	}
	if writable {
		f |= flagWritable
	}
	c.tags[i] = blockAddr
	c.flags[i] = f
	c.touch(set, way)
}

// EvictWay removes the valid block at (set, way) as a replacement decision
// and returns it.
//
//ziv:noalloc
func (c *Cache) EvictWay(set, way int) Block {
	i := set*c.ways + way
	if c.tags[i] == tagNone {
		panic(fmt.Sprintf("cache %s: EvictWay on invalid way (set %d way %d)", c.name, set, way))
	}
	return c.remove(i)
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
	return c.remove(c.SetIndex(blockAddr)*c.ways + way), true
}

// remove invalidates the valid way at index i and returns its block. The
// zero stamp makes the way the first candidate of its set's Victim.
func (c *Cache) remove(i int) Block {
	b := c.block(i)
	c.tags[i] = tagNone
	c.stamp[i] = 0
	return b
}

// block copies out the valid way at index i.
func (c *Cache) block(i int) Block {
	f := c.flags[i]
	return Block{Dirty: f&flagDirty != 0, Writable: f&flagWritable != 0, Addr: c.tags[i]}
}

// SetDirty marks the valid block at (set, way) dirty.
func (c *Cache) SetDirty(set, way int) { c.flags[set*c.ways+way] |= flagDirty }

// SetWritable grants the valid block at (set, way) write permission.
func (c *Cache) SetWritable(set, way int) { c.flags[set*c.ways+way] |= flagWritable }

// Writable reports whether the valid block at (set, way) may be written
// without an upgrade.
func (c *Cache) Writable(set, way int) bool { return c.flags[set*c.ways+way]&flagWritable != 0 }

// Downgrade clears the dirty and writable bits of the valid block at
// (set, way) and reports whether it was dirty.
func (c *Cache) Downgrade(set, way int) (wasDirty bool) {
	i := set*c.ways + way
	wasDirty = c.flags[i]&flagDirty != 0
	c.flags[i] = 0
	return wasDirty
}

// ForEachValid calls fn for every valid block, in set then way order.
func (c *Cache) ForEachValid(fn func(b Block)) {
	for i, t := range c.tags {
		if t != tagNone {
			fn(c.block(i))
		}
	}
}
