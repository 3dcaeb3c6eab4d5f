package core

import (
	"math/rand"
	"testing"

	"zivsim/internal/policy"
)

// schemeCombo pairs a victim-selection scheme with a property/policy
// configuration; the list covers every scheme the paper evaluates.
type schemeCombo struct {
	scheme Scheme
	prop   Property
	pol    func() policy.Policy
}

func schemeCombos() []schemeCombo {
	return []schemeCombo{
		{SchemeBaseline, PropNone, lruPol},
		{SchemeBaseline, PropNone, hawkeyePol},
		{SchemeBaseline, PropNone, srripPol},
		{SchemeQBS, PropNone, lruPol},
		{SchemeQBS, PropNone, hawkeyePol},
		{SchemeQBS, PropNone, srripPol},
		{SchemeSHARP, PropNone, lruPol},
		{SchemeSHARP, PropNone, hawkeyePol},
		{SchemeSHARP, PropNone, srripPol},
		{SchemeCHARonBase, PropNone, lruPol},
		{SchemeCHARonBase, PropNone, srripPol},
		{SchemeZIV, PropNotInPrC, lruPol},
		{SchemeZIV, PropLRUNotInPrC, lruPol},
		{SchemeZIV, PropLikelyDead, lruPol},
		{SchemeZIV, PropMaxRRPVNotInPrC, hawkeyePol},
		{SchemeZIV, PropMaxRRPVLikelyDead, hawkeyePol},
		{SchemeZIV, PropMaxRRPVNotInPrC, srripPol},
		{SchemeZIV, PropMaxRRPVLikelyDead, srripPol},
	}
}

// FuzzScheme is the CI fuzz gate: it feeds an arbitrary access/evict op
// stream through the miniature-hierarchy driver for a fuzzer-chosen
// scheme and asserts the structural invariants that every scheme must
// keep — CheckInvariants passes, capacity is bounded, inclusion holds,
// and ZIV produces zero inclusion victims.
//
// Run locally with: go test -fuzz=FuzzScheme -fuzztime=20s ./internal/core
func FuzzScheme(f *testing.F) {
	for pick := 0; pick < len(schemeCombos()); pick++ {
		f.Add(int64(pick)*7919+1, uint8(pick), []byte{0x01, 0x82, 0x13, 0x44, 0x95, 0x26, 0xf7, 0x08})
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		combos := schemeCombos()
		c := combos[int(pick)%len(combos)]
		llc, dir := mkLLC(t, c.scheme, c.prop, c.pol)
		d := newDriver(t, llc, dir, 12)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			coreID := int(op) & 3
			addr := uint64(rng.Intn(100))
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
