package trace

import (
	"testing"
	"testing/quick"
)

func TestTranslatePreservesOffsets(t *testing.T) {
	g := NewScript([]Ref{{Addr: 0x12345}, {Addr: 0x12388}})
	tr := Translate(g, 7)
	a := tr.Next()
	b := tr.Next()
	if a.Addr&0xfff != 0x345 || b.Addr&0xfff != 0x388 {
		t.Fatalf("page offsets not preserved: %#x %#x", a.Addr, b.Addr)
	}
	// Same page -> same frame.
	if a.Addr>>12 != b.Addr>>12 {
		t.Fatal("same-page addresses mapped to different frames")
	}
}

func TestTranslateDeterministicAndKeyed(t *testing.T) {
	mk := func(key uint64) uint64 {
		g := Translate(NewScript([]Ref{{Addr: 0xabcdef}}), key)
		return g.Next().Addr
	}
	if mk(1) != mk(1) {
		t.Fatal("same key produced different translations")
	}
	if mk(1) == mk(2) {
		t.Fatal("different keys produced identical translations (suspicious)")
	}
}

func TestTranslateWithin48Bits(t *testing.T) {
	g := Translate(NewScript([]Ref{{Addr: 0xffff_ffff_f000}}), 99)
	if a := g.Next().Addr; a >= 1<<48 {
		t.Fatalf("translated address %#x exceeds 48 bits", a)
	}
}

// Property: the frame scramble is a bijection — distinct pages never
// collide (checked over random samples plus dense ranges).
func TestFrameBijectionProperty(t *testing.T) {
	f := func(key uint64, start uint32) bool {
		seen := map[uint64]bool{}
		base := uint64(start)
		for p := base; p < base+500; p++ {
			fr := frameOf(p, key)
			if fr >= 1<<frameBits {
				return false
			}
			if seen[fr] {
				return false
			}
			seen[fr] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameInvertibleSteps(t *testing.T) {
	// Exhaustive collision check over a dense low range with one key.
	seen := make(map[uint64]uint64, 1<<16)
	for p := uint64(0); p < 1<<16; p++ {
		fr := frameOf(p, 0xdead)
		if prev, ok := seen[fr]; ok {
			t.Fatalf("pages %#x and %#x collide on frame %#x", prev, p, fr)
		}
		seen[fr] = p
	}
}

func TestTranslateAllSharedKey(t *testing.T) {
	a := NewScript([]Ref{{Addr: 0x5000}})
	b := NewScript([]Ref{{Addr: 0x5040}})
	out := TranslateAll([]Generator{a, b}, 3)
	ra, rb := out[0].Next(), out[1].Next()
	if ra.Addr>>12 != rb.Addr>>12 {
		t.Fatal("TranslateAll broke same-page sharing across generators")
	}
}

func TestTranslateReset(t *testing.T) {
	g := Translate(NewStream(0, 1<<12, 0, 0, 1), 5)
	first := g.Next()
	g.Next()
	g.Reset()
	if g.Next() != first {
		t.Fatal("Reset did not rewind through the translation wrapper")
	}
}

func TestDriftingHotMovesWindow(t *testing.T) {
	g := NewDriftingHot(0, 4096, 1<<16, 1.0, 0, 0, 500, 9) // all-hot, slow drift
	early := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		early[g.Next().Addr/64] = true
	}
	// Advance far enough for the window to rotate halfway (area = 128
	// blocks, one step per 500 refs).
	for i := 0; i < 500*64; i++ {
		g.Next()
	}
	late := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		late[g.Next().Addr/64] = true
	}
	common := 0
	for a := range late {
		if early[a] {
			common++
		}
	}
	if common == len(late) {
		t.Fatal("drifting hot window never moved")
	}
	// 200 samples at drift-per-500-refs see at most the 64-block window
	// plus one boundary step.
	if len(late) > 4096/64+2 {
		t.Fatalf("instantaneous working set %d blocks exceeds the window", len(late))
	}
}

func TestDriftingHotStaysInArea(t *testing.T) {
	g := NewDriftingHot(1<<30, 4096, 1<<14, 0.9, 0.2, 2, 3, 4)
	for i := 0; i < 20000; i++ {
		a := g.Next().Addr
		if a < 1<<30 || a > (1<<30)+2*4096+(1<<14)+64 {
			t.Fatalf("drifting hot escaped its region: %#x", a)
		}
	}
}
