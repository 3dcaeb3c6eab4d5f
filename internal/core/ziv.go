package core

import (
	"fmt"
	"math/bits"

	"zivsim/internal/directory"
	"zivsim/internal/obs"
	"zivsim/internal/policy"
)

// pickRS selects the next relocation set from a PV, honouring the
// SelectLowest ablation knob.
//
//ziv:noalloc
func (l *LLC) pickRS(bk *bank, lev level) int {
	if l.cfg.SelectLowest {
		return bk.pvs[lev].Lowest()
	}
	return bk.pvs[lev].NextRS()
}

// oracleCandidates bounds how many eligible relocation sets the oracle
// property evaluates per relocation.
const oracleCandidates = 8

// oraclePickRS scans up to oracleCandidates eligible relocation sets and
// returns the one holding the NotInPrC block with the furthest next use,
// along with that block's way (§VI future work: oracle-assisted optimal
// relocation victim selection).
func (l *LLC) oraclePickRS(bk *bank) (rs, way int) {
	pv := bk.pvs[levNotInPrC]
	n := oracleCandidates
	if ones := pv.Ones(); ones < n {
		n = ones
	}
	rs, way = -1, -1
	var bestNU uint64
	for i := 0; i < n; i++ {
		cand := pv.NextRS()
		if cand < 0 {
			break
		}
		w, nu := l.oracleVictimIn(bk, cand)
		if w >= 0 && (rs < 0 || nu > bestNU) {
			rs, way, bestNU = cand, w, nu
		}
	}
	return rs, way
}

// oracleVictimIn returns the NotInPrC block of (bank, set) with the furthest
// next use, and that distance.
func (l *LLC) oracleVictimIn(bk *bank, set int) (way int, nextUse uint64) {
	base := set * l.cfg.Ways
	way = -1
	for n := bk.masks[set].notInPrC; n != 0; n &= n - 1 {
		w := bits.TrailingZeros64(n)
		nu := l.cfg.Oracle.NextUse(bk.blocks[base+w].Addr, l.oracleNow)
		if way < 0 || nu > nextUse {
			way, nextUse = w, nu
		}
	}
	return way, nextUse
}

// zivFill runs the ZIV victim flow (paper §III, Fig. 5) for a fill into a
// full set. If the baseline victim has no private copies it is evicted
// normally. Otherwise the victim must be relocated: the configured priority
// levels are walked in order, and at each level the original set is checked
// first (avoiding relocation by picking an alternate victim in place), then
// the level's property vector supplies a global relocation set via nextRS.
// If every PV in the home bank is empty, one-hop-first cross-bank relocation
// is attempted. The flow guarantees that no eviction ever generates an
// inclusion victim.
//
//ziv:noalloc
func (l *LLC) zivFill(bk *bank, set int, addr uint64, dirty, inPrC bool, m policy.Meta, now uint64) *FillOutcome {
	if m.Pos > l.oracleNow {
		l.oracleNow = m.Pos
	}
	victim := bk.pol.Victim(set, l.allWays)
	if bk.masks[set].notInPrC>>uint(victim)&1 != 0 {
		// The baseline victim is not privately cached: a plain eviction is
		// already inclusion-victim free.
		return l.replace(bk, set, victim, addr, dirty, inPrC, m)
	}

	for _, lev := range l.levels {
		if lev == levInvalid {
			// The original set has no invalid way (the caller checked); try
			// the global Invalid PV.
			if rs := l.pickRS(bk, levInvalid); rs >= 0 {
				return l.relocate(bk, set, victim, bk, rs, -1, levInvalid, addr, dirty, inPrC, m, now)
			}
			continue
		}
		// Original set first: if it satisfies the property, no relocation is
		// needed — the relocation set's victim-selection algorithm runs on
		// the original set to pick a different victim (§III-D4).
		if l.setSatisfies(bk, set, lev) {
			alt := l.relocVictimWay(bk, set)
			if alt < 0 {
				panic("core: original set satisfies property but has no relocation victim")
			}
			o := l.replace(bk, set, alt, addr, dirty, inPrC, m)
			l.Stats.AlternateVictims++
			if l.obs != nil {
				l.obs.Record(obs.EvInclusionAverted, -1, int16(bk.id), addr, uint64(lev))
			}
			return o
		}
		if lev == levLikelyDead && bk.pvs[levLikelyDead].Empty() && bk.thresh != nil {
			// A relocation request found the LikelyDeadNotInPrC PV empty:
			// ask the CHAR threshold controller to become more aggressive
			// (§III-D6).
			bk.thresh.OnEmptyPV()
		}
		if lev == levNotInPrC && l.cfg.Property == PropOracleNotInPrC {
			if rs, w := l.oraclePickRS(bk); rs >= 0 {
				return l.relocate(bk, set, victim, bk, rs, w, lev, addr, dirty, inPrC, m, now)
			}
			continue
		}
		if rs := l.pickRS(bk, lev); rs >= 0 {
			return l.relocate(bk, set, victim, bk, rs, -1, lev, addr, dirty, inPrC, m, now)
		}
	}

	// Extremely rare (§III-D1): every block in this bank is privately
	// cached. Relocate to another bank, querying one-hop neighbours first
	// (approximated by ring distance from the home bank). With
	// FillCrossBank, the newly filled block goes to the other bank as a
	// relocated block instead of moving the victim.
	for off := 1; off < l.cfg.Banks; off++ {
		dst := &l.banks[(bk.id+off)%l.cfg.Banks]
		for _, lev := range l.levels {
			if rs := l.pickRS(dst, lev); rs >= 0 {
				if l.cfg.FillCrossBank {
					return l.fillRelocated(bk, dst, rs, lev, addr, dirty)
				}
				return l.relocate(bk, set, victim, dst, rs, -1, lev, addr, dirty, inPrC, m, now)
			}
		}
	}

	// Last resort: the aggregate private capacity must exceed the LLC for
	// this to happen, which violates the inclusive configuration contract.
	if l.cfg.DebugChecks {
		panic("core: ZIV found no relocation set anywhere — private caches exceed LLC capacity?")
	}
	l.Stats.ForcedInclusions++
	return l.replace(bk, set, victim, addr, dirty, inPrC, m)
}

// relocVictimWay picks the victim within a relocation set per §III-E,
// following the configured property's priority chain. Invalid ways are
// handled by the caller. It returns -1 when the set holds no block that can
// be evicted without inclusion victims. Each candidate class is a way mask,
// and Victim finds its first way in the baseline policy's order.
//
//ziv:noalloc
func (l *LLC) relocVictimWay(bk *bank, set int) int {
	m := &bk.masks[set]
	switch l.cfg.Property {
	case PropNotInPrC, PropLRUNotInPrC, PropMaxRRPVNotInPrC:
		// The NotInPrC block closest to the LRU position, or with as high
		// an RRPV as possible (the rank order is descending RRPV).
		return bk.pol.Victim(set, m.notInPrC)
	case PropLikelyDead:
		// LikelyDead closest to LRU, else NotInPrC closest to LRU.
		if m.dead != 0 {
			return bk.pol.Victim(set, m.dead)
		}
		return bk.pol.Victim(set, m.notInPrC)
	case PropOracleNotInPrC:
		w, _ := l.oracleVictimIn(bk, set)
		return w
	case PropMaxRRPVLikelyDead:
		// NotInPrC at max RRPV (a Hawkeye cache-averse block), else
		// LikelyDead with as high an RRPV as possible, else NotInPrC with as
		// high an RRPV as possible. The rank order is descending RRPV, so
		// the first NotInPrC way is at max RRPV if any NotInPrC way is;
		// querying it first also runs SRRIP's aging before any RRPV read.
		w := bk.pol.Victim(set, m.notInPrC)
		if w < 0 || bk.rrip.RRPV(set, w) == bk.rrip.MaxRRPV() || m.dead == 0 {
			return w
		}
		return bk.pol.Victim(set, m.dead)
	}
	return -1
}

// relocate moves the privately cached victim at (home, homeSet, victimWay)
// into the relocation set (dst, rs) chosen at priority level lev, and fills
// the new block into the freed home way. Fig. 5's full flow.
//
//ziv:noalloc
func (l *LLC) relocate(home *bank, homeSet, victimWay int, dst *bank, rs, dstWayOverride int, lev level,
	addr uint64, dirty, inPrC bool, m policy.Meta, now uint64) *FillOutcome {

	vb := &home.blocks[homeSet*l.cfg.Ways+victimWay]
	vAddr, vDirty, reReloc := vb.Addr, vb.Dirty, vb.Relocated
	depth := vb.RelocDepth
	if depth < ^uint8(0) {
		depth++
	}

	// Locate the victim's directory entry: a relocated block carries the
	// pointer in its repurposed tag; a first-time relocation looks the entry
	// up by block address (§III-C3).
	var ptr directory.Ptr
	if reReloc {
		ptr = vb.DirPtr
	} else {
		_, p, ok := l.dir.Find(vAddr)
		if !ok {
			panic(fmt.Sprintf("core: relocating block %#x with no directory entry", vAddr))
		}
		ptr = p
	}

	// Remove the victim from its current location. This is not a
	// replacement mistake (the block stays in the LLC), so the policy sees
	// an invalidation, not an eviction.
	home.pol.OnInvalidate(homeSet, victimWay)
	*vb = Block{}
	home.tags[homeSet*l.cfg.Ways+victimWay] = tagNone
	home.masks[homeSet].sync(victimWay, vb)

	o := l.placeRelocated(home, dst, rs, dstWayOverride, lev, vAddr, vDirty, ptr, depth)

	// Statistics: re-relocations, the inter-relocation interval CDF and the
	// modeled relocation-FIFO occupancy (§III-D1, Fig. 18).
	if reReloc {
		l.Stats.ReRelocations++
	}
	if home.everRelocated {
		delta := now - home.lastReloc
		l.Stats.IntervalHist[intervalBucket(delta)]++
		// The FIFO drains one relocation per ~3 cycles (the nextRS logic
		// latency); arrivals faster than that accumulate.
		home.fifoOcc -= float64(delta) / 3.0
		if home.fifoOcc < 0 {
			home.fifoOcc = 0
		}
	}
	home.everRelocated = true
	home.lastReloc = now
	home.fifoOcc++
	if occ := int(home.fifoOcc); occ > l.Stats.FIFOMaxOcc {
		l.Stats.FIFOMaxOcc = occ
	}

	// Finally, fill the new block into the freed home way.
	l.fillWay(home, homeSet, victimWay, addr, dirty, inPrC, m)
	return o
}

// fillRelocated implements the §III-D1 cross-bank alternative: the newly
// filled block itself is installed in the relocation set (dst, rs) in
// Relocated state, reached through its freshly allocated directory entry;
// the home set is left untouched. Only meaningful for privately cached
// fills (a directory entry must exist to locate the block).
//
//ziv:noalloc
func (l *LLC) fillRelocated(home, dst *bank, rs int, lev level, addr uint64, dirty bool) *FillOutcome {
	_, ptr, ok := l.dir.Find(addr)
	if !ok {
		panic(fmt.Sprintf("core: FillCrossBank for untracked block %#x", addr))
	}
	return l.placeRelocated(home, dst, rs, -1, lev, addr, dirty, ptr, 1)
}

// placeRelocated installs block addr, whose directory entry ptr addresses,
// as a relocated block of depth depth in the relocation set (dst, rs) that
// a fill into home chose at priority level lev. The block takes the set's
// invalid way at the Invalid level; otherwise it evicts the block at dstWay,
// or at the set's relocation victim when dstWay is -1. The insertion
// protects the block (MRU/RRPV 0) without predictor training, since a
// relocation is not a program access, and the directory entry is pointed
// at the new location. It returns the fill outcome holding the eviction and
// the relocation.
//
//ziv:noalloc
func (l *LLC) placeRelocated(home, dst *bank, rs, dstWay int, lev level, addr uint64, dirty bool, ptr directory.Ptr, depth uint8) *FillOutcome {
	if l.obs != nil {
		l.obs.Record(obs.EvRelocBegin, -1, int16(home.id), addr, uint64(lev))
		l.obs.Record(obs.EvRelocSetSelect, -1, int16(dst.id), uint64(rs), uint64(lev))
	}
	o := l.outcome()
	if lev == levInvalid {
		dstWay = l.invalidWay(dst, rs)
		if dstWay < 0 {
			panic("core: Invalid PV pointed at a full set")
		}
	} else {
		if dstWay < 0 {
			dstWay = l.relocVictimWay(dst, rs)
		}
		if dstWay < 0 {
			panic(fmt.Sprintf("core: %v PV pointed at set with no eligible victim", lev))
		}
		o.Evicted = l.evictWay(dst, rs, dstWay)
		if l.cfg.DebugChecks && o.Evicted.InPrC {
			panic("core: relocation-set victim was privately cached")
		}
	}

	db := &dst.blocks[rs*l.cfg.Ways+dstWay]
	*db = Block{
		Valid:      true,
		Dirty:      dirty,
		Relocated:  true,
		Addr:       addr,
		DirPtr:     ptr,
		EvictCore:  -1,
		RelocDepth: depth,
	}
	dst.tags[rs*l.cfg.Ways+dstWay] = tagNone // relocated blocks are invisible to lookups
	dst.masks[rs].sync(dstWay, db)
	dst.pol.Promote(rs, dstWay)

	e := l.dir.At(ptr)
	if e == nil || !e.Valid {
		panic(fmt.Sprintf("core: relocation directory pointer %+v is stale", ptr))
	}
	e.Relocated = true
	e.Loc = directory.Location{Bank: dst.id, Set: rs, Way: dstWay}

	l.updateSet(dst, rs)
	dst.relocTargets[rs]++
	cross := dst.id != home.id
	l.Stats.Relocations++
	l.Stats.RelocationsByLevel[lev]++
	if cross {
		l.Stats.CrossBankRelocations++
	}
	if l.obs != nil {
		l.obs.Record(obs.EvRelocEnd, -1, int16(dst.id), addr, uint64(depth))
	}
	o.Relocation = Relocation{Valid: true, CrossBank: cross, Depth: depth}
	return o
}

// intervalBucket maps a cycle delta to its log2 histogram bucket.
func intervalBucket(delta uint64) int {
	b := bits.Len64(delta)
	if b >= len(Stats{}.IntervalHist) {
		b = len(Stats{}.IntervalHist) - 1
	}
	return b
}
