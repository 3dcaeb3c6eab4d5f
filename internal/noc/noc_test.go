package noc

import (
	"testing"
	"testing/quick"
)

func TestMeshBasics(t *testing.T) {
	m := New(DefaultConfig(8, 8))
	if m.hopCycles != 6 { // 1.5 ns at 4 GHz
		t.Errorf("hopCycles = %d, want 6", m.hopCycles)
	}
	for c := 0; c < 8; c++ {
		for b := 0; b < 8; b++ {
			h := m.Hops(c, b)
			if h < 1 || h > 8 {
				t.Errorf("Hops(%d,%d) = %d out of range", c, b, h)
			}
			if m.RoundTrip(c, b) != 2*m.OneWay(c, b) {
				t.Errorf("round trip is not 2x one way")
			}
			if m.OneWay(c, b) != uint64(h)*m.hopCycles {
				t.Errorf("OneWay inconsistent with hops")
			}
		}
	}
}

func TestMeshLargeConfig(t *testing.T) {
	m := New(DefaultConfig(128, 32))
	maxHop := 0
	for c := 0; c < 128; c++ {
		for b := 0; b < 32; b++ {
			if h := m.Hops(c, b); h > maxHop {
				maxHop = h
			}
		}
	}
	// 160 tiles -> 13x13 grid; the diameter is at most 24 hops.
	if maxHop < 2 || maxHop > 24 {
		t.Errorf("128-core mesh max hops = %d, outside plausible range", maxHop)
	}
}

// Property: hop distances are symmetric in magnitude ranges and positive for
// every valid (core, bank) pair across mesh sizes.
func TestMeshDistanceProperty(t *testing.T) {
	f := func(coresRaw, banksRaw uint8) bool {
		cores := int(coresRaw%32) + 1
		banks := int(banksRaw%16) + 1
		m := New(DefaultConfig(cores, banks))
		for c := 0; c < cores; c++ {
			for b := 0; b < banks; b++ {
				if m.Hops(c, b) < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigValues(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	if cfg.RoutingNS != 1.0 || cfg.LinkNS != 0.5 || cfg.CPUFreqGHz != 4.0 {
		t.Errorf("DefaultConfig = %+v, want the paper's Table I mesh parameters", cfg)
	}
	if cfg.Cores != 8 || cfg.Banks != 8 {
		t.Error("tile counts not propagated")
	}
}
