package char

import (
	"testing"
	"testing/quick"
)

func TestGroupOf(t *testing.T) {
	if g := GroupOf(false, false, 0, false); g != 0 {
		t.Errorf("baseline group = %d, want 0", g)
	}
	if g := GroupOf(false, false, 0, true); g&attrDirty == 0 {
		t.Error("dirty bit not set")
	}
	if g := GroupOf(false, true, 0, false); g&attrLLCHit == 0 {
		t.Error("llc-hit bit not set")
	}
	if g := GroupOf(true, false, 0, false); g&attrPrefetch == 0 {
		t.Error("prefetch bit not set")
	}
	g1 := GroupOf(false, false, 1, false)
	g2 := GroupOf(false, false, 2, false)
	g9 := GroupOf(false, false, 9, false)
	if g1&attrReuse1 == 0 || g1&attrReuse2 != 0 {
		t.Errorf("reuse=1 group = %b", g1)
	}
	if g2&attrReuse1 == 0 || g2&attrReuse2 == 0 {
		t.Errorf("reuse=2 group = %b", g2)
	}
	if g9 != g2 {
		t.Error("reuse counts above 2 should saturate into the same group")
	}
	if int(GroupOf(true, true, 3, true)) >= NumGroups {
		t.Error("group id out of range")
	}
}

func TestEngineInfersDeadWithoutRecalls(t *testing.T) {
	e := NewEngine()
	g := GroupOf(false, false, 0, false)
	for i := 0; i < 100; i++ {
		if !e.OnEvict(g) {
			t.Fatal("group with zero recalls must be inferred dead")
		}
	}
	if e.evict[g] != 100 {
		t.Errorf("evictions classified = %d, want 100", e.evict[g])
	}
}

func TestEngineRecallsSuppressInference(t *testing.T) {
	e := NewEngine()
	g := GroupOf(false, true, 2, false)
	// Every eviction is recalled: ratio 1 >> tau -> not dead.
	for i := 0; i < 200; i++ {
		e.OnEvict(g)
		e.OnRecall(g)
	}
	if e.OnEvict(g) {
		t.Error("always-recalled group inferred dead")
	}
	if r := float64(e.recall[g]) / float64(e.evict[g]); r < 0.9 {
		t.Errorf("recall ratio = %v", r)
	}
}

func TestEngineThresholdSensitivity(t *testing.T) {
	// Recall ratio of 1/8: dead under tau=1/64 (d=6)? 1/8 > 1/64 -> not dead.
	// After lowering d to 2 (tau=1/4): 1/8 < 1/4 -> dead.
	e := NewEngine()
	g := uint8(3)
	for i := 0; i < 800; i++ {
		e.OnEvict(g)
		if i%8 == 0 {
			e.OnRecall(g)
		}
	}
	if e.OnEvict(g) {
		t.Fatal("ratio 1/8 inferred dead at tau=1/64")
	}
	e.SetD(2)
	if !e.OnEvict(g) {
		t.Fatal("ratio 1/8 not inferred dead at tau=1/4")
	}
}

func TestSetDOnlyLowers(t *testing.T) {
	e := NewEngine()
	e.SetD(3)
	if e.d != 3 {
		t.Errorf("D = %d, want 3", e.d)
	}
	e.SetD(5)
	if e.d != 3 {
		t.Error("SetD raised the threshold")
	}
	e.SetD(0)
	if e.d != 3 {
		t.Error("SetD accepted d < 1")
	}
	e.ResetD()
	if e.d != DefaultD {
		t.Errorf("ResetD -> %d", e.d)
	}
}

func TestBankThresholderDecrementAndTRBV(t *testing.T) {
	b := NewBankThresholder(4)
	if b.d != DefaultD {
		t.Fatalf("initial D = %d", b.d)
	}
	b.OnEmptyPV() // first decrement allowed immediately (paced thereafter)
	if b.d != DefaultD-1 {
		t.Fatalf("D after first OnEmptyPV = %d", b.d)
	}
	// All cores should receive a piggyback exactly once.
	for c := 0; c < 4; c++ {
		d, pb := b.OnNotice(c)
		if !pb || d != DefaultD-1 {
			t.Errorf("core %d: piggyback=%v d=%d", c, pb, d)
		}
	}
	if _, pb := b.OnNotice(2); pb {
		t.Error("second notice from same core re-piggybacked")
	}
}

func TestBankThresholderPacing(t *testing.T) {
	b := NewBankThresholder(2)
	b.OnEmptyPV()
	b.OnEmptyPV() // too soon: must be ignored
	if b.d != DefaultD-1 {
		t.Fatalf("pacing violated: D = %d", b.d)
	}
	for i := 0; i < minInterval-1; i++ {
		b.OnNotice(0)
	}
	b.OnEmptyPV() // one notice short of the interval: still ignored
	if b.d != DefaultD-1 {
		t.Fatalf("pacing violated after %d notices: D = %d", minInterval-1, b.d)
	}
	b.OnNotice(0)
	b.OnEmptyPV()
	if b.d != DefaultD-2 {
		t.Errorf("decrement after pacing interval failed: D = %d", b.d)
	}
}

func TestBankThresholderFloor(t *testing.T) {
	b := NewBankThresholder(1)
	for i := 0; i < 20; i++ {
		for j := 0; j < minInterval; j++ {
			b.OnNotice(0)
		}
		b.OnEmptyPV()
	}
	if b.d != 1 {
		t.Errorf("D floor violated: %d", b.d)
	}
}

func TestBankThresholderReset(t *testing.T) {
	b := NewBankThresholder(2)
	b.OnEmptyPV()
	b.Reset()
	if b.d != DefaultD {
		t.Errorf("D after Reset = %d", b.d)
	}
	if _, pb := b.OnNotice(0); pb {
		t.Error("TRBV not cleared by Reset")
	}
}

// Property: inference is monotone in d — if a group is inferred dead at
// exponent d, it is also inferred dead at any larger exponent (smaller tau
// catches strictly fewer groups... inverse: larger tau infers more dead).
func TestInferenceMonotoneProperty(t *testing.T) {
	f := func(evicts, recalls uint16, dSmall, dBig uint8) bool {
		ds := int(dSmall%5) + 1
		db := ds + int(dBig%3) + 1 // db > ds
		mk := func(d int) *Engine {
			e := NewEngine()
			e.d = d
			g := uint8(0)
			for i := 0; i < int(evicts%500); i++ {
				e.OnEvict(g)
			}
			for i := 0; i < int(recalls%500); i++ {
				e.OnRecall(g)
			}
			return e
		}
		// Dead at small tau (big d) implies dead at big tau (small d):
		// (recall << db) < evict implies (recall << ds) < evict.
		eb, es := mk(db), mk(ds)
		deadBigD := eb.OnEvict(0)
		deadSmallD := es.OnEvict(0)
		if deadBigD && !deadSmallD {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
