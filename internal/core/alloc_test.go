package core

import (
	"testing"

	"zivsim/internal/directory"
	"zivsim/internal/policy"
)

// TestZIVFillChurnNoAllocs guards the heap-free steady-state fill path: the
// common ZIV miss — eviction or alternate-victim selection — must not
// allocate. Fill hands back a pointer to an LLC-owned FillOutcome precisely
// so the per-miss hot path stays off the heap.
func TestZIVFillChurnNoAllocs(t *testing.T) {
	dir := directory.New(directory.Config{Slices: 8, SetsPerSlice: 256, Ways: 8})
	llc := New(Config{
		Banks: 8, SetsPerBank: 64, Ways: 16,
		Scheme: SchemeZIV, Property: PropNotInPrC,
		NewPolicy: func() policy.Policy { return policy.NewLRU() },
	}, dir)
	// Track every third block so a third of replacement candidates look
	// privately cached and exercise the alternate-victim search.
	for a := uint64(0); a < 4096; a += 3 {
		dir.Allocate(a, int(a%8), directory.Shared)
	}
	i := uint64(0)
	fill := func() {
		addr := i % (1 << 20)
		i++
		if e, _, ok := dir.Find(addr); ok && e.Relocated {
			return // already resident at its relocated location
		} else if _, hit := llc.Probe(addr); !hit {
			llc.Fill(addr, int(addr%8), false, ok, policy.Meta{Addr: addr}, i)
		}
	}
	for j := 0; j < 20_000; j++ { // reach the full-set steady state
		fill()
	}
	if llc.Stats.AlternateVictims == 0 {
		t.Fatal("setup exercised no alternate-victim selections; the guard would not cover the ZIV search")
	}
	if n := testing.AllocsPerRun(5000, fill); n != 0 {
		t.Errorf("ZIV fill path allocates %v per op; want 0", n)
	}
}

// TestZIVRelocationNoAllocs guards the relocation path itself. One LLC set is
// kept entirely privately cached, so every fill into it must displace a
// victim to another set (no alternate victim exists). A rotating pool of
// tracked addresses keeps the cycle repeatable: by the time an address is
// refilled it has been relocated out, and invalidating that copy — the same
// call the hierarchy makes when the last private copy dies — frees exactly
// the slot the next relocation consumes.
func TestZIVRelocationNoAllocs(t *testing.T) {
	dir := directory.New(directory.Config{Slices: 2, SetsPerSlice: 32, Ways: 8})
	llc := New(Config{
		Banks: 2, SetsPerBank: 8, Ways: 4,
		Scheme: SchemeZIV, Property: PropNotInPrC,
		NewPolicy: func() policy.Policy { return policy.NewLRU() },
	}, dir)

	// All addresses map to (bank 0, set 0): stride 16 covers the 1 bank bit
	// + 3 set bits. The first four fill the set; the pool rotates through it.
	const poolSize = 8
	now := uint64(0)
	track := func(a uint64) {
		if _, evicted, _ := dir.Allocate(a, 0, directory.Shared); evicted != nil {
			t.Fatalf("unexpected directory eviction tracking %#x", a)
		}
	}
	for k := uint64(0); k < 4; k++ {
		a := k * 16
		track(a)
		now++
		llc.Fill(a, 0, false, true, policy.Meta{Addr: a}, now)
	}
	pool := make([]uint64, poolSize)
	for k := range pool {
		pool[k] = uint64(4+k) * 16
		track(pool[k])
	}

	i := 0
	fill := func() {
		addr := pool[i%poolSize]
		i++
		e, _, ok := dir.Find(addr)
		if !ok {
			t.Fatalf("pool address %#x lost its directory entry", addr)
		}
		if e.Relocated {
			// The block's previous incarnation was displaced; drop it the
			// way an eviction notice would before refilling.
			llc.InvalidateRelocated(e.Loc)
			e.Relocated = false
		}
		now++
		llc.Fill(addr, 0, false, true, policy.Meta{Addr: addr}, now)
	}
	for j := 0; j < 4*poolSize; j++ { // reach the every-fill-relocates steady state
		fill()
	}
	before := llc.Stats.Relocations
	n := testing.AllocsPerRun(5000, fill)
	if moved := llc.Stats.Relocations - before; moved < 5000 {
		t.Fatalf("only %d of 5001 measured fills relocated; the guard is not covering the relocation path", moved)
	}
	if n != 0 {
		t.Errorf("ZIV relocation path allocates %v per op; want 0", n)
	}
	if llc.Stats.ForcedInclusions != 0 {
		t.Errorf("relocation cycle forced %d inclusion victims; want 0", llc.Stats.ForcedInclusions)
	}
}
