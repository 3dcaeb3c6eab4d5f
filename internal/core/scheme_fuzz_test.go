package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAllSchemesModelProperty fuzzes every victim-selection scheme through
// the miniature-hierarchy driver and validates the shared invariants:
// the LLC never exceeds capacity, duplicate tags never appear, the
// directory/LLC residency bits agree, and inclusion holds for every
// privately cached block.
func TestAllSchemesModelProperty(t *testing.T) {
	combos := schemeCombos()
	f := func(seed int64, pick uint8) bool {
		c := combos[int(pick)%len(combos)]
		llc, dir := c.mkLLC(t)
		d := newDriver(t, llc, dir, 12)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1200; i++ {
			coreID := rng.Intn(4)
			addr := uint64(rng.Intn(100))
			d.access(coreID, addr, uint64(rng.Intn(8))*4)
			if rng.Intn(4) == 0 {
				d.dropPrivate(coreID, addr)
			}
		}
		if err := llc.CheckInvariants(); err != nil {
			t.Logf("scheme %v prop %v: %v", c.scheme, c.prop, err)
			return false
		}
		if llc.ValidCount() > 2*8*4 {
			return false
		}
		if c.scheme == SchemeZIV && d.inclusionVictims != 0 {
			t.Logf("ZIV %v produced %d inclusion victims", c.prop, d.inclusionVictims)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}

// TestSchemeVictimQualityOrdering: under identical pressure, the schemes
// that avoid privately cached victims (QBS, SHARP, CHARonBase, ZIV) must
// generate no more inclusion victims than the baseline.
func TestSchemeVictimQualityOrdering(t *testing.T) {
	run := func(scheme Scheme, prop Property) int {
		llc, dir := mkLLC(t, scheme, prop, lruPol)
		d := newDriver(t, llc, dir, 12)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 2500; i++ {
			coreID := rng.Intn(4)
			addr := uint64(rng.Intn(90))
			d.access(coreID, addr, 4)
			if rng.Intn(5) == 0 {
				d.dropPrivate(coreID, addr)
			}
		}
		_ = llc
		return d.inclusionVictims
	}
	base := run(SchemeBaseline, PropNone)
	if base == 0 {
		t.Skip("baseline produced no inclusion victims; pressure too low")
	}
	for _, tc := range []struct {
		name   string
		scheme Scheme
		prop   Property
	}{
		{"QBS", SchemeQBS, PropNone},
		{"SHARP", SchemeSHARP, PropNone},
		{"CHARonBase", SchemeCHARonBase, PropNone},
		{"ZIV", SchemeZIV, PropNotInPrC},
	} {
		got := run(tc.scheme, tc.prop)
		if got > base {
			t.Errorf("%s inclusion victims (%d) exceed baseline (%d)", tc.name, got, base)
		}
		if tc.scheme == SchemeZIV && got != 0 {
			t.Errorf("ZIV inclusion victims = %d, want 0", got)
		}
	}
}

// TestQBSOnHawkeyePromotions: QBS composed with Hawkeye must promote via
// RRPV without touching the predictor (the paper notes QBS composes with
// any policy).
func TestQBSOnHawkeyePromotions(t *testing.T) {
	llc, dir := mkLLC(t, SchemeQBS, PropNone, hawkeyePol)
	d := newDriver(t, llc, dir, 32)
	addrs := conflictAddrs(6)
	for _, a := range addrs[:4] {
		d.access(0, a, 4)
	}
	d.access(0, addrs[4], 4) // all private: QBS promotes then falls back
	if llc.Stats.QBSPromotions == 0 {
		t.Fatal("QBS on Hawkeye never promoted")
	}
	d.check()
}

// TestInPrCEvictionAccounting: the InPrCEvictions counter must equal the
// number of back-invalidation events the driver observed.
func TestInPrCEvictionAccounting(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	rng := rand.New(rand.NewSource(5))
	backInvalEvents := 0
	for i := 0; i < 2000; i++ {
		coreID := rng.Intn(2)
		addr := uint64(rng.Intn(80))
		before := llc.Stats.InPrCEvictions
		d.access(coreID, addr, 4)
		if llc.Stats.InPrCEvictions > before {
			backInvalEvents += int(llc.Stats.InPrCEvictions - before)
		}
	}
	if uint64(backInvalEvents) != llc.Stats.InPrCEvictions {
		t.Fatalf("accounting drift: %d observed vs %d counted", backInvalEvents, llc.Stats.InPrCEvictions)
	}
}
