// Package directory implements the sparse coherence directory of the
// simulated CMP (paper §III-A): a tagged set-associative structure, sliced
// per LLC bank, tracking every privately cached block with MESI state and a
// sharer bitvector, kept precisely up-to-date by private-cache eviction
// notices. The ZIV extension adds a Relocated state and the LLC location
// tuple <bank, set, way> to each entry (§III-C).
//
// The package also implements a ZeroDEV-style overflow mode (§III-F, Fig.
// 15): directory evictions spill the victim entry into an overflow structure
// instead of back-invalidating private copies, modelling the effect of the
// ZeroDEV protocol (which accommodates evicted entries in the LLC).
package directory

import (
	"fmt"
	"math/bits"
	"sort"

	"zivsim/internal/obs"
)

// State is the MESI directory state of a tracked block.
type State uint8

// Directory states. A valid entry is never Invalid.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the state mnemonic.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// MaxCores is the most cores a directory entry can track: the width of
// Sharers.
const MaxCores = 256

// Sharers is a bitset of core ids below MaxCores.
type Sharers [MaxCores / 64]uint64

// Set marks core as a sharer.
func (s *Sharers) Set(core int) { s[core>>6] |= 1 << (uint(core) & 63) }

// Clear unmarks core.
func (s *Sharers) Clear(core int) { s[core>>6] &^= 1 << (uint(core) & 63) }

// Has reports whether core is a sharer.
func (s *Sharers) Has(core int) bool { return s[core>>6]&(1<<(uint(core)&63)) != 0 }

// Count returns the number of sharers.
func (s *Sharers) Count() int {
	n := 0
	for _, m := range s {
		n += bits.OnesCount64(m)
	}
	return n
}

// ForEach calls fn for every sharer core id in ascending order.
func (s *Sharers) ForEach(fn func(core int)) {
	for w, m := range s {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			fn(w*64 + b)
			m &= m - 1
		}
	}
}

// Only returns the single sharer id, panicking unless exactly one is set.
func (s *Sharers) Only() int {
	if s.Count() != 1 {
		panic(fmt.Sprintf("Sharers.Only on %d sharers", s.Count()))
	}
	for w := 0; w < 4; w++ {
		if s[w] != 0 {
			return w*64 + bits.TrailingZeros64(s[w])
		}
	}
	panic("unreachable")
}

// Location addresses an LLC block: bank, set within bank, way.
type Location struct {
	Bank, Set, Way int
}

// Entry is one sparse-directory entry.
type Entry struct {
	Valid   bool
	Addr    uint64 // block address
	State   State
	Sharers Sharers

	// ZIV extension (paper §III-C): when Relocated is set, the tracked
	// block's LLC copy lives at Loc rather than in its home set.
	Relocated bool
	Loc       Location
}

// Ptr addresses a directory entry: slice (== LLC bank), set, way. Relocated
// LLC blocks store this in their repurposed tag field (§III-C3). Way == -1
// flags an overflow-resident entry (ZeroDEV mode), which is addressed by
// block address instead.
type Ptr struct {
	Bank, Set, Way int
	// OverflowAddr is the tracked block address when Way == -1.
	OverflowAddr uint64
}

// Config sizes the directory.
type Config struct {
	Slices int // one per LLC bank
	// SetsPerSlice and Ways give each slice's geometry; SetsPerSlice must be
	// a power of two.
	SetsPerSlice int
	Ways         int
	// ZeroDEV, when true, absorbs directory evictions into an overflow
	// structure instead of producing back-invalidations.
	ZeroDEV bool
}

// SizeFor returns the slice geometry for a directory provisioned with
// `factor` times the aggregate private L2 tag count (factor 2.0 is the
// paper's 2x directory), rounded to a power-of-two set count at the given
// associativity.
func SizeFor(cores, l2Blocks, slices, ways int, factor float64) (setsPerSlice int) {
	entries := int(factor * float64(cores*l2Blocks))
	per := entries / slices
	sets := per / ways
	// Round down to a power of two (under-provisioning is the conservative
	// direction for the paper's sensitivity study).
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Stats counts directory events.
type Stats struct {
	Lookups     uint64
	Hits        uint64
	Allocs      uint64
	Evictions   uint64 // capacity/conflict evictions of valid entries
	Spills      uint64 // ZeroDEV: evictions absorbed by the overflow
	Frees       uint64 // entries freed because the last sharer left
	MaxOverflow int    // high-water mark of the overflow structure
}

// Reset clears every counter (end of warmup). The whole-struct assignment
// is the statreset-approved pattern: fields added later are zeroed too.
func (s *Stats) Reset() { *s = Stats{} }

// Directory is the full sparse directory (all slices).
type Directory struct {
	cfg      Config
	bankBits uint
	setMask  uint64
	slices   []slice
	// overflowLive is the live overflow population across all slices: a
	// spill adds one entry, Free removes one, and nothing else writes the
	// overflow maps. It keeps the MaxOverflow high-water update O(1).
	overflowLive int
	// obs is the attached event ring, nil when observability is off; every
	// probe point guards on it, so the detached cost is one branch.
	obs *obs.Ring
	// victim holds the entry the last Allocate evicted, which Allocate
	// hands out by pointer instead of returning a copy.
	victim Entry

	Stats Stats
}

type slice struct {
	// entries is the primary store. sidecarsync enforces that every
	// whole-element write also refreshes the tag sidecar.
	//
	//ziv:mirror(tags)
	entries []Entry // sets*ways
	// tags mirrors entries for fast lookup: the tracked block address for a
	// valid entry, tagNone otherwise.
	tags []uint64
	// ref holds the 1-bit NRU (not-recently-used) reference bit of every
	// way, the paper's directory replacement policy: see touch and victim.
	ref      []bool
	overflow map[uint64]*Entry
	// free recycles overflow Entry boxes: a ZeroDEV workload churns
	// spill/free pairs in the steady state, and reusing the boxes keeps the
	// spill path allocation-free after the high-water mark.
	free []*Entry
}

// tagNone marks an invalid entry in the tag sidecar (outside the 48-bit
// physical block-address space).
const tagNone = ^uint64(0)

// New builds a directory from cfg.
func New(cfg Config) *Directory {
	if cfg.Slices <= 0 || bits.OnesCount(uint(cfg.Slices)) != 1 {
		panic(fmt.Sprintf("directory: slices must be a positive power of two, got %d", cfg.Slices))
	}
	if cfg.SetsPerSlice <= 0 || bits.OnesCount(uint(cfg.SetsPerSlice)) != 1 {
		panic(fmt.Sprintf("directory: sets per slice must be a positive power of two, got %d", cfg.SetsPerSlice))
	}
	if cfg.Ways <= 0 {
		panic("directory: ways must be positive")
	}
	d := &Directory{
		cfg:      cfg,
		bankBits: uint(bits.TrailingZeros(uint(cfg.Slices))),
		setMask:  uint64(cfg.SetsPerSlice - 1),
		slices:   make([]slice, cfg.Slices),
	}
	for i := range d.slices {
		tags := make([]uint64, cfg.SetsPerSlice*cfg.Ways)
		for j := range tags {
			tags[j] = tagNone
		}
		d.slices[i] = slice{
			entries:  make([]Entry, cfg.SetsPerSlice*cfg.Ways),
			tags:     tags,
			ref:      make([]bool, cfg.SetsPerSlice*cfg.Ways),
			overflow: make(map[uint64]*Entry),
		}
	}
	return d
}

// SetObserver attaches (or, with nil, detaches) the event ring the
// directory probe points record into.
func (d *Directory) SetObserver(r *obs.Ring) { d.obs = r }

// Config returns the directory configuration.
func (d *Directory) Config() Config { return d.cfg }

// SliceOf returns the slice (bank) index of a block address.
func (d *Directory) SliceOf(blockAddr uint64) int {
	return int(blockAddr & (uint64(d.cfg.Slices) - 1))
}

func (d *Directory) setOf(blockAddr uint64) int {
	return int((blockAddr >> d.bankBits) & d.setMask)
}

// At returns the entry addressed by p (main array or overflow). It returns
// nil for an overflow pointer whose entry has been freed. Writes through
// it inherit the entries field's sidecar obligations.
//
//ziv:aliases(entries)
//ziv:noalloc
func (d *Directory) At(p Ptr) *Entry {
	sl := &d.slices[p.Bank]
	if p.Way < 0 {
		return sl.overflow[p.OverflowAddr]
	}
	return &sl.entries[p.Set*d.cfg.Ways+p.Way]
}

// Lookup finds the entry tracking blockAddr, returning the entry and its
// pointer, or nil when the block is not tracked (i.e. not privately cached).
//
//ziv:aliases(entries)
//ziv:noalloc
func (d *Directory) Lookup(blockAddr uint64) (*Entry, Ptr) {
	d.Stats.Lookups++
	e, p, ok := d.Find(blockAddr)
	if ok {
		d.Stats.Hits++
		if p.Way >= 0 {
			d.slices[p.Bank].touch(p.Set*d.cfg.Ways, p.Way, d.cfg.Ways)
		}
	}
	return e, p
}

// Find locates the entry tracking blockAddr without updating replacement
// state or lookup statistics (used by the LLC's internal relocation
// bookkeeping, which in hardware rides on state the LLC already holds).
//
//ziv:aliases(entries)
//ziv:noalloc
func (d *Directory) Find(blockAddr uint64) (*Entry, Ptr, bool) {
	bank := d.SliceOf(blockAddr)
	set := d.setOf(blockAddr)
	sl := &d.slices[bank]
	base := set * d.cfg.Ways
	for w, t := range sl.tags[base : base+d.cfg.Ways] {
		if t == blockAddr {
			return &sl.entries[base+w], Ptr{Bank: bank, Set: set, Way: w}, true
		}
	}
	if e, ok := sl.overflow[blockAddr]; ok {
		return e, Ptr{Bank: bank, Set: set, Way: -1, OverflowAddr: blockAddr}, true
	}
	return nil, Ptr{}, false
}

// Tracked reports whether blockAddr is tracked (resident in some private
// cache) without updating replacement state.
//
//ziv:noalloc
func (d *Directory) Tracked(blockAddr uint64) bool {
	_, _, ok := d.Find(blockAddr)
	return ok
}

// Allocate installs a new entry for blockAddr with the initial core and
// state. If the target set is full, the NRU victim is displaced and
// returned so the caller can act on it; victim is nil otherwise. By default
// the victim is evicted (spilled false): the caller back-invalidates its
// private copies and, for a relocated victim, invalidates the relocated LLC
// block. In ZeroDEV mode the victim is spilled to the overflow instead
// (spilled true): a spilled entry changes its pointer, so the caller must
// retarget any state that addressed it — in particular a relocated LLC
// block's tag-encoded directory pointer (use OverflowPtr for the new one).
// victim points at directory-owned storage (a scratch copy of an evicted
// entry, or a spilled entry's overflow slot) that stays valid until the
// next Allocate or Free.
//
// Allocate must not be called for an address that is already tracked.
func (d *Directory) Allocate(blockAddr uint64, core int, st State) (p Ptr, victim *Entry, spilled bool) {
	if d.Tracked(blockAddr) {
		panic(fmt.Sprintf("directory: Allocate of tracked block %#x", blockAddr))
	}
	d.Stats.Allocs++
	bank := d.SliceOf(blockAddr)
	set := d.setOf(blockAddr)
	sl := &d.slices[bank]
	base := set * d.cfg.Ways
	way := -1
	for w := 0; w < d.cfg.Ways; w++ {
		if sl.tags[base+w] == tagNone {
			way = w
			break
		}
	}
	if way < 0 {
		way = sl.victim(base, d.cfg.Ways)
		old := &sl.entries[base+way]
		d.Stats.Evictions++
		if d.cfg.ZeroDEV {
			d.Stats.Spills++
			var box *Entry
			if n := len(sl.free); n > 0 {
				box = sl.free[n-1]
				sl.free = sl.free[:n-1]
			} else {
				box = new(Entry)
			}
			*box = *old
			sl.overflow[box.Addr] = box
			victim, spilled = box, true
			d.overflowLive++
			if d.overflowLive > d.Stats.MaxOverflow {
				d.Stats.MaxOverflow = d.overflowLive
			}
			if d.obs != nil {
				arg := uint64(0)
				if victim.Relocated {
					arg = 1
				}
				d.obs.Record(obs.EvDirPtrUpdate, -1, int16(bank), victim.Addr, arg)
			}
		} else {
			d.victim = *old
			victim = &d.victim
			if d.obs != nil {
				d.obs.Record(obs.EvDirEviction, -1, int16(bank), victim.Addr, uint64(victim.Sharers.Count()))
			}
		}
	}
	e := &sl.entries[base+way]
	*e = Entry{Valid: true, Addr: blockAddr, State: st}
	e.Sharers.Set(core)
	sl.tags[base+way] = blockAddr
	sl.touch(base, way, d.cfg.Ways)
	return Ptr{Bank: bank, Set: set, Way: way}, victim, spilled
}

// touch marks the way at base+way referenced. When that leaves every way
// of the set referenced, the other ways' bits clear.
func (sl *slice) touch(base, way, ways int) {
	ref := sl.ref[base : base+ways]
	ref[way] = true
	for _, r := range ref {
		if !r {
			return
		}
	}
	for w := range ref {
		ref[w] = w == way
	}
}

// victim returns the NRU victim of the full set at base: its first
// unreferenced way, or way 0 when every way is referenced.
func (sl *slice) victim(base, ways int) int {
	for w, r := range sl.ref[base : base+ways] {
		if !r {
			return w
		}
	}
	return 0
}

// OverflowPtr returns the pointer addressing blockAddr's overflow-resident
// entry (ZeroDEV mode).
func (d *Directory) OverflowPtr(blockAddr uint64) Ptr {
	return Ptr{Bank: d.SliceOf(blockAddr), Set: d.setOf(blockAddr), Way: -1, OverflowAddr: blockAddr}
}

// OverflowCount returns the live overflow entry count (ZeroDEV mode).
func (d *Directory) OverflowCount() int { return d.overflowLive }

// Free invalidates the entry at p (all sharers gone). The caller handles any
// relocated-block invalidation before calling Free.
func (d *Directory) Free(p Ptr) {
	sl := &d.slices[p.Bank]
	d.Stats.Frees++
	if p.Way < 0 {
		if box, ok := sl.overflow[p.OverflowAddr]; ok {
			delete(sl.overflow, p.OverflowAddr)
			*box = Entry{}
			sl.free = append(sl.free, box)
			d.overflowLive--
		}
		return
	}
	i := p.Set*d.cfg.Ways + p.Way
	sl.entries[i] = Entry{}
	sl.tags[i] = tagNone
	sl.ref[i] = false
}

// ValidCount returns the number of valid entries (main arrays + overflow).
func (d *Directory) ValidCount() int {
	n := 0
	for i := range d.slices {
		for j := range d.slices[i].entries {
			if d.slices[i].entries[j].Valid {
				n++
			}
		}
		n += len(d.slices[i].overflow)
	}
	return n
}

// ForEach calls fn for every valid entry with its pointer.
func (d *Directory) ForEach(fn func(e *Entry, p Ptr)) {
	for b := range d.slices {
		sl := &d.slices[b]
		for s := 0; s < d.cfg.SetsPerSlice; s++ {
			for w := 0; w < d.cfg.Ways; w++ {
				e := &sl.entries[s*d.cfg.Ways+w]
				if e.Valid {
					fn(e, Ptr{Bank: b, Set: s, Way: w})
				}
			}
		}
		// Visit overflow entries in sorted address order: map iteration
		// order is randomized and would make every ForEach consumer
		// (invariant walks, reports) nondeterministic run to run.
		addrs := make([]uint64, 0, len(sl.overflow))
		for a := range sl.overflow {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fn(sl.overflow[a], Ptr{Bank: b, Set: d.setOf(a), Way: -1, OverflowAddr: a})
		}
	}
}
