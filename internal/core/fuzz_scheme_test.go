package core

import (
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
	llc := New(Config{
		Banks: 2, SetsPerBank: 8, Ways: 4,
		Scheme: c.scheme, Property: c.prop,
		NewPolicy:     c.pol,
		FillCrossBank: c.fillCrossBank,
		SelectLowest:  c.selectLowest,
		DebugChecks:   true,
	}, dir)
	return llc, dir
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
// scheme and asserts the structural invariants that every scheme must
// keep — CheckInvariants passes, capacity is bounded, inclusion holds,
// and ZIV produces zero inclusion victims. An op's low two bits pick the
// core, bits 2-4 the PC, bit 6 confines its address to bank 0 (so a stream
// can fill one bank with private blocks and drive the cross-bank
// relocation paths), and bit 7 drops the block instead of accessing it.
//
// Run locally with: go test -fuzz=FuzzScheme -fuzztime=20s ./internal/core
func FuzzScheme(f *testing.F) {
	combos := schemeCombos()
	for pick := range combos {
		f.Add(int64(pick)*7919+1, uint8(pick), []byte{0x01, 0x82, 0x13, 0x44, 0x95, 0x26, 0xf7, 0x08})
	}
	// Bank-0 streams that exhaust the home bank's relocation sets, so the
	// FillCrossBank and SelectLowest rows place blocks in the other bank.
	bankZero := make([]byte, 64)
	for i := range bankZero {
		bankZero[i] = byte(i*37)&^0x80 | 0x40
	}
	for pick, c := range combos {
		if c.fillCrossBank || c.selectLowest {
			f.Add(int64(1), uint8(pick), bankZero)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		c := combos[int(pick)%len(combos)]
		llc, dir := c.mkLLC(t)
		d := newDriver(t, llc, dir, 12)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			coreID := int(op) & 3
			addr := uint64(rng.Intn(100))
			if op&0x40 != 0 {
				addr &^= 1 // even addresses map to bank 0 of 2
			}
			if op&0x80 != 0 {
				d.dropPrivate(coreID, addr)
				continue
			}
			d.access(coreID, addr, uint64(op>>2&7)*4)
		}
		if err := llc.CheckInvariants(); err != nil {
			t.Fatalf("scheme %v prop %v: %v", c.scheme, c.prop, err)
		}
		d.check()
		if got, max := llc.ValidCount(), 2*8*4; got > max {
			t.Fatalf("LLC holds %d blocks, capacity %d", got, max)
		}
		if c.scheme == SchemeZIV && d.inclusionVictims != 0 {
			t.Fatalf("ZIV %v produced %d inclusion victims", c.prop, d.inclusionVictims)
		}
	})
}
