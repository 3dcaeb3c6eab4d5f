package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"zivsim/internal/directory"
	"zivsim/internal/policy"
)

// schemeCombo pairs a victim-selection scheme with a property/policy
// configuration and the ZIV ablation knobs; the list covers every scheme
// the paper evaluates, and each knob on a ZIV property.
type schemeCombo struct {
	scheme Scheme
	prop   Property
	pol    func() policy.Policy
	// fillCrossBank and selectLowest set the Config knobs of the same name.
	fillCrossBank, selectLowest bool
}

// mkLLC builds the combo on the miniature-hierarchy geometry: 2 banks of
// 8 sets of 4 ways, and a 2-slice directory.
func (c schemeCombo) mkLLC(t *testing.T) (*LLC, *directory.Directory) {
	t.Helper()
	dir := directory.New(directory.Config{Slices: 2, SetsPerSlice: 32, Ways: 8})
	return c.build(2, 8, 4, dir), dir
}

// build builds the combo on an LLC of banks banks of sets sets of ways
// ways, over dir, with debug checks on.
func (c schemeCombo) build(banks, sets, ways int, dir *directory.Directory) *LLC {
	return New(Config{
		Banks: banks, SetsPerBank: sets, Ways: ways,
		Scheme: c.scheme, Property: c.prop,
		NewPolicy:     c.pol,
		FillCrossBank: c.fillCrossBank,
		SelectLowest:  c.selectLowest,
		DebugChecks:   true,
	}, dir)
}

func schemeCombos() []schemeCombo {
	return []schemeCombo{
		{SchemeBaseline, PropNone, lruPol, false, false},
		{SchemeBaseline, PropNone, hawkeyePol, false, false},
		{SchemeBaseline, PropNone, srripPol, false, false},
		{SchemeQBS, PropNone, lruPol, false, false},
		{SchemeQBS, PropNone, hawkeyePol, false, false},
		{SchemeQBS, PropNone, srripPol, false, false},
		{SchemeSHARP, PropNone, lruPol, false, false},
		{SchemeSHARP, PropNone, hawkeyePol, false, false},
		{SchemeSHARP, PropNone, srripPol, false, false},
		{SchemeCHARonBase, PropNone, lruPol, false, false},
		{SchemeCHARonBase, PropNone, srripPol, false, false},
		{SchemeZIV, PropNotInPrC, lruPol, false, false},
		{SchemeZIV, PropLRUNotInPrC, lruPol, false, false},
		{SchemeZIV, PropLikelyDead, lruPol, false, false},
		{SchemeZIV, PropMaxRRPVNotInPrC, hawkeyePol, false, false},
		{SchemeZIV, PropMaxRRPVLikelyDead, hawkeyePol, false, false},
		{SchemeZIV, PropMaxRRPVNotInPrC, srripPol, false, false},
		{SchemeZIV, PropMaxRRPVLikelyDead, srripPol, false, false},
		{SchemeZIV, PropNotInPrC, lruPol, true, false},
		{SchemeZIV, PropLRUNotInPrC, lruPol, false, true},
	}
}

// FuzzScheme is the CI fuzz gate: it feeds an arbitrary access/evict op
// stream through the miniature-hierarchy driver for a fuzzer-chosen
// scheme and LLC shape, and asserts the structural invariants that every
// scheme must keep — CheckInvariants passes, capacity is bounded,
// inclusion holds, and ZIV produces zero inclusion victims. The shape is
// 1, 2 or 4 banks (banks%3 picks the power of two), 1-16 sets per bank
// (sets%5) and 1-16 ways, or 64 when ways%17 is 0, so the way masks are
// full words. An op's low two bits pick the core, bits 2-4 the PC, bit 6
// confines its address to bank 0 (so a stream can fill one bank with
// private blocks and drive the cross-bank relocation paths), and bit 7
// drops the block instead of accessing it. Bit 5 of a drop sets whether
// that and later last-copy notices (capacity drops included) carry
// CHAR's dead inference, for addresses divisible by 3.
//
// Run locally with: go test -fuzz=FuzzScheme -fuzztime=20s ./internal/core
func FuzzScheme(f *testing.F) {
	combos := schemeCombos()
	const banks, sets, ways = 1, 3, 4 // 2 banks of 8 sets of 4 ways
	for pick := range combos {
		f.Add(int64(pick)*7919+1, uint8(pick), uint8(banks), uint8(sets), uint8(ways), []byte{0x01, 0x82, 0x13, 0x44, 0x95, 0x26, 0xf7, 0x08})
	}
	// Bank-0 streams that exhaust the home bank's relocation sets, so the
	// FillCrossBank and SelectLowest rows place blocks in the other bank.
	bankZero := make([]byte, 64)
	for i := range bankZero {
		bankZero[i] = byte(i*37)&^0x80 | 0x40
	}
	for pick, c := range combos {
		if c.fillCrossBank || c.selectLowest {
			f.Add(int64(1), uint8(pick), uint8(banks), uint8(sets), uint8(ways), bankZero)
		}
	}
	// Streams that relocate, with dead notices, in a one-bank ZIV LLC (no
	// cross-bank fallback) and in a one-bank LLC of two 64-way sets (every
	// way-mask bit in use) under the four-level Hawkeye property.
	churn := make([]byte, 2048)
	for i := range churn {
		churn[i] = byte(i * 29)
	}
	f.Add(int64(7), uint8(13), uint8(0), uint8(3), uint8(4), churn)
	f.Add(int64(11), uint8(15), uint8(0), uint8(1), uint8(0), churn)
	f.Fuzz(func(t *testing.T, seed int64, pick, banks, sets, ways uint8, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		c := combos[int(pick)%len(combos)]
		nb, ns, nw := 1<<(banks%3), 1<<(sets%5), int(ways%17)
		if nw == 0 {
			nw = 64
		}
		// The 2x8x4 LLC draws from 100 addresses; other shapes scale that.
		// Each directory set holds at most one of them, so the directory
		// never evicts, and the four cores' private capacity stays below
		// the LLC's, so ZIV always finds a relocation victim.
		blocks := nb * ns * nw
		span := max(blocks*25/16, 4)
		dir := directory.New(directory.Config{Slices: nb, SetsPerSlice: 1 << bits.Len(uint(span/nb)), Ways: 2})
		llc := c.build(nb, ns, nw, dir)
		d := newDriver(t, llc, dir, blocks*3/16)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			coreID := int(op) & 3
			addr := uint64(rng.Intn(span))
			if op&0x40 != 0 {
				addr &^= uint64(nb - 1) // bank 0
			}
			if op&0x80 != 0 {
				d.deadNotices = op&0x20 != 0
				d.dropPrivate(coreID, addr)
				continue
			}
			d.access(coreID, addr, uint64(op>>2&7)*4)
		}
		if err := llc.CheckInvariants(); err != nil {
			t.Fatalf("scheme %v prop %v, %dx%dx%d: %v", c.scheme, c.prop, nb, ns, nw, err)
		}
		d.check()
		if got := llc.ValidCount(); got > blocks {
			t.Fatalf("LLC holds %d blocks, capacity %d", got, blocks)
		}
		if c.scheme == SchemeZIV && d.inclusionVictims != 0 {
			t.Fatalf("ZIV %v produced %d inclusion victims", c.prop, d.inclusionVictims)
		}
	})
}
