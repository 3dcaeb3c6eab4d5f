package policy

import (
	"testing"
)

func TestOptgenSetHitWithinCapacity(t *testing.T) {
	o := newOptgenSet(4)
	// Two blocks alternating: every reuse interval has occupancy < 4.
	for i := 0; i < 20; i++ {
		addr := uint64(i % 2)
		pc, hit, ok := o.access(addr, 0x40)
		if i >= 2 {
			if !ok {
				t.Fatalf("access %d: reuse not trainable", i)
			}
			if !hit {
				t.Fatalf("access %d: OPT should hit with 2 blocks in 4 ways", i)
			}
			if pc != 0x40 {
				t.Fatalf("access %d: wrong training PC %#x", i, pc)
			}
		}
	}
}

func TestOptgenSetMissBeyondCapacity(t *testing.T) {
	o := newOptgenSet(2)
	// Six blocks cycling through a 2-way set: OPT cannot hold them all; at
	// least some reuses must be OPT misses.
	misses := 0
	for i := 0; i < 60; i++ {
		_, hit, ok := o.access(uint64(i%6), 0x80)
		if ok && !hit {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("thrashing pattern never produced an OPT miss")
	}
}

func TestOptgenColdAccessNotTrainable(t *testing.T) {
	o := newOptgenSet(4)
	if _, _, ok := o.access(42, 1); ok {
		t.Fatal("first touch must not be trainable")
	}
}

func TestOptgenAgedOutIntervalNotTrainable(t *testing.T) {
	o := newOptgenSet(2) // vector length 16
	o.access(7, 1)
	for i := 0; i < 20; i++ {
		o.access(uint64(100+i), 1)
	}
	if _, _, ok := o.access(7, 1); ok {
		t.Fatal("interval longer than the occupancy vector must not train")
	}
}

func TestPredictorSaturation(t *testing.T) {
	var p predictor
	pc := uint64(0x998)
	for i := 0; i < 20; i++ {
		p.train(pc, true)
	}
	if p.ctr[pcIndex(pc)] != hawkeyeCtrMax {
		t.Fatal("positive training did not saturate at max")
	}
	for i := 0; i < 20; i++ {
		p.train(pc, false)
	}
	if p.ctr[pcIndex(pc)] != 0 {
		t.Fatal("negative training did not saturate at 0")
	}
	if p.friendly(pc) {
		t.Fatal("fully detrained PC still friendly")
	}
}

func TestHawkeyeSamplingStride(t *testing.T) {
	p := NewHawkeye(4)
	p.Init(16, 2)
	for s := 0; s < 16; s++ {
		if got, want := p.sampler(s) != nil, s%4 == 0; got != want {
			t.Errorf("set %d sampled=%v, want %v", s, got, want)
		}
	}
}

func TestHawkeyeAgingOnFriendlyFill(t *testing.T) {
	p := NewHawkeye(16) // avoid sampling side effects on set 1
	p.Init(16, 4)
	// Make the predictor friendly for one PC by direct training.
	pc := uint64(0x77c)
	for i := 0; i < 8; i++ {
		p.pred.train(pc, true)
	}
	p.OnFill(1, 0, Meta{PC: pc, Addr: 10})
	p.OnFill(1, 1, Meta{PC: pc, Addr: 11})
	// Way 0 was friendly at RRPV 0; the second friendly fill ages it to 1.
	if got := p.RRPV(1, 0); got != 1 {
		t.Fatalf("aging on friendly fill: RRPV = %d, want 1", got)
	}
	if got := p.RRPV(1, 1); got != 0 {
		t.Fatalf("new friendly fill RRPV = %d, want 0", got)
	}
}

func TestHawkeyeInvalidateClearsState(t *testing.T) {
	p := NewHawkeye(16)
	p.Init(4, 2)
	p.OnFill(0, 0, Meta{PC: 4, Addr: 9})
	before := p.pred.ctr[pcIndex(4)]
	p.OnInvalidate(0, 0)
	if p.pred.ctr[pcIndex(4)] != before {
		t.Fatal("OnInvalidate must not detrain")
	}
	if p.RRPV(0, 0) != hawkeyeMaxRRPV {
		t.Fatal("invalidated way not reset to max RRPV")
	}
	if p.friendly[0] || p.pcOf[0] != 0 {
		t.Fatal("invalidated way kept its PC")
	}
}
