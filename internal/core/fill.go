package core

import (
	"fmt"

	"zivsim/internal/policy"
)

// Evicted describes a block that left the LLC to make room for a fill.
// Valid is false when no block was evicted.
type Evicted struct {
	Valid bool
	Addr  uint64
	Dirty bool
	// InPrC flags that the block has live private copies: the hierarchy must
	// back-invalidate them, generating inclusion victims. Never true for a
	// ZIV LLC (the zero-inclusion-victim guarantee).
	InPrC bool
}

// Relocation describes a ZIV block relocation performed during a fill: what
// the hierarchy charges for it. Valid is false when the fill performed no
// relocation; the other fields are meaningful only when it is true. The
// relocated block's directory entry holds its new location, and Stats
// attributes the move to its priority level and counts re-relocations.
type Relocation struct {
	Valid     bool
	CrossBank bool
	// Depth is the block's relocation-chain length after this move (1 for a
	// first relocation), feeding the observability depth histogram.
	Depth uint8
}

// FillOutcome reports what a fill did that the hierarchy must act on. Fill
// returns a pointer to an LLC-owned outcome that the next Fill overwrites,
// so a miss neither allocates nor copies the record.
type FillOutcome struct {
	// Evicted is the block that left the LLC (Valid=false when an invalid
	// way absorbed the fill, or when a relocation landed on an invalid way).
	Evicted Evicted
	// Relocation has Valid=true when the ZIV scheme moved a privately cached
	// block to a relocation set.
	Relocation Relocation
}

// Fill allocates addr in its home set, running the configured victim-
// selection scheme. requester is the core whose miss triggers the fill;
// dirty seeds the block's dirty bit (writeback-allocates); inPrC seeds the
// private-residency state (false only for non-inclusive writeback-allocates);
// now is the current cycle for relocation-interval statistics.
//
// The caller (hierarchy) must have verified the address misses in the LLC
// and must have already allocated/updated the sparse-directory entry for the
// requester when inPrC is true. The returned outcome stays valid until the
// next Fill.
//
//ziv:noalloc
func (l *LLC) Fill(addr uint64, requester int, dirty, inPrC bool, m policy.Meta, now uint64) *FillOutcome {
	if l.cfg.DebugChecks {
		if _, hit := l.Probe(addr); hit {
			panic(fmt.Sprintf("core: Fill of resident block %#x", addr))
		}
	}
	l.Stats.Fills++
	bk := &l.banks[l.BankOf(addr)]
	set := l.SetOf(addr)

	// The Invalid property has the highest priority in every scheme: an
	// invalid way absorbs the fill with no eviction at all.
	if w := l.invalidWay(bk, set); w >= 0 {
		l.fillWay(bk, set, w, addr, dirty, inPrC, m)
		return l.outcome()
	}

	if l.cfg.Scheme == SchemeZIV {
		return l.zivFill(bk, set, addr, dirty, inPrC, m, now)
	}

	var victim int
	switch l.cfg.Scheme {
	case SchemeBaseline:
		victim = bk.pol.Victim(set, l.allWays)
	case SchemeQBS:
		victim = l.qbsVictim(bk, set)
	case SchemeSHARP:
		victim = l.sharpVictim(bk, set, requester)
	case SchemeCHARonBase:
		victim = l.charOnBaseVictim(bk, set)
	default:
		panic(fmt.Sprintf("core: unknown scheme %d", l.cfg.Scheme))
	}
	return l.replace(bk, set, victim, addr, dirty, inPrC, m)
}

// outcome resets the LLC-owned fill outcome to a fill that evicted and
// relocated nothing, and returns it.
//
//ziv:noalloc
func (l *LLC) outcome() *FillOutcome {
	o := &l.out
	o.Evicted = Evicted{}
	o.Relocation.Valid = false
	return o
}

// replace evicts the block at (bank, set, way) and fills addr into the freed
// way.
//
//ziv:noalloc
func (l *LLC) replace(bk *bank, set, way int, addr uint64, dirty, inPrC bool, m policy.Meta) *FillOutcome {
	o := l.outcome()
	o.Evicted = l.evictWay(bk, set, way)
	l.fillWay(bk, set, way, addr, dirty, inPrC, m)
	return o
}

// qbsVictim implements query-based selection: walk the baseline preference
// order; promote privately cached candidates to MRU; the first candidate
// with no private copies is the victim. If every block is privately cached,
// the original baseline victim is evicted, generating inclusion victims.
//
//ziv:noalloc
func (l *LLC) qbsVictim(bk *bank, set int) int {
	order := l.rankScratch[:copy(l.rankScratch, bk.pol.Rank(set))]
	notInPrC := bk.masks[set].notInPrC
	for _, w := range order {
		if notInPrC>>uint(w)&1 != 0 {
			return w
		}
		bk.pol.Promote(set, w)
		l.Stats.QBSPromotions++
	}
	return order[0]
}

// sharpVictim implements the SHARP victim search: (1) a block with no
// private copies, (2) a block cached only in the requester's private
// hierarchy, (3) a random block. Either stage 1 finds its way with Victim
// or the directory stage walks Rank, so each search queries the policy
// order once.
//
//ziv:noalloc
func (l *LLC) sharpVictim(bk *bank, set, requester int) int {
	if notInPrC := bk.masks[set].notInPrC; notInPrC != 0 {
		return bk.pol.Victim(set, notInPrC)
	}
	order := l.rankScratch[:copy(l.rankScratch, bk.pol.Rank(set))]
	base := set * l.cfg.Ways
	for _, w := range order {
		s := &bk.slots[base+w]
		if s.Relocated {
			continue
		}
		if e, _, ok := l.dir.Find(s.Addr); ok && e.Sharers.Count() == 1 && e.Sharers.Has(requester) {
			return w
		}
	}
	l.Stats.SHARPFallback++
	return int(l.rand() % uint64(l.cfg.Ways))
}

// charOnBaseVictim implements CHARonBase (§V-A): when the baseline victim is
// privately cached, prefer a CHAR-inferred likely-dead block from the same
// set (in baseline preference order); otherwise fall back to the baseline
// victim even though it generates inclusion victims. The LikelyDead query
// after the whole-set query repeats no side effect for the LLC policies the
// hierarchy builds: SRRIP's aging is a no-op once a way sits at max RRPV.
//
//ziv:noalloc
func (l *LLC) charOnBaseVictim(bk *bank, set int) int {
	m := &bk.masks[set]
	v0 := bk.pol.Victim(set, l.allWays)
	if m.dead == 0 || m.notInPrC>>uint(v0)&1 != 0 {
		return v0
	}
	return bk.pol.Victim(set, m.dead)
}

// fillWay installs addr at (bank, set, way), which must be invalid (no
// mask bit set), and refreshes the set's property bits.
//
//ziv:noalloc
func (l *LLC) fillWay(bk *bank, set, way int, addr uint64, dirty, inPrC bool, m policy.Meta) {
	wm, bit := &bk.masks[set], uint64(1)<<uint(way)
	if l.cfg.DebugChecks && wm.valid&bit != 0 {
		panic(fmt.Sprintf("core: fillWay into valid way (bank %d set %d way %d)", bk.id, set, way))
	}
	wm.valid |= bit
	if !inPrC {
		wm.notInPrC |= bit
	}
	bk.slots[set*l.cfg.Ways+way] = slot{Dirty: dirty, Addr: addr, EvictCore: -1}
	bk.tags[set*l.cfg.Ways+way] = addr
	bk.pol.OnFill(set, way, m)
	bk.updateSet(l, set)
}

// evictWay removes the block at (bank, set, way) as a replacement decision,
// updates statistics and property bits, and returns the eviction record.
//
//ziv:noalloc
func (l *LLC) evictWay(bk *bank, set, way int) Evicted {
	s, wm, bit := &bk.slots[set*l.cfg.Ways+way], &bk.masks[set], uint64(1)<<uint(way)
	if l.cfg.DebugChecks && wm.valid&bit == 0 {
		panic(fmt.Sprintf("core: evictWay of invalid way (bank %d set %d way %d)", bk.id, set, way))
	}
	ev := Evicted{Valid: true, Addr: s.Addr, Dirty: s.Dirty, InPrC: wm.notInPrC&bit == 0}
	l.Stats.Evictions++
	if ev.Dirty {
		l.Stats.DirtyWritebacks++
	}
	if ev.InPrC {
		l.Stats.InPrCEvictions++
	}
	bk.pol.OnEvict(set, way)
	bk.clearWay(l, set, way)
	return ev
}
