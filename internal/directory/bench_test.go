package directory

import "testing"

// BenchmarkAllocateEvictChurn measures the standard allocate/evict
// replacement cycle on a saturated directory set.
func BenchmarkAllocateEvictChurn(b *testing.B) {
	d := New(Config{Slices: 1, SetsPerSlice: 1, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, _ := d.Allocate(uint64(i), 0, Shared)
		_ = p
	}
}

// BenchmarkOverflowSpillFree measures the ZeroDEV overflow cycle: every
// allocation spills a victim, which is then freed — the steady state of an
// overflow-heavy workload. The Entry pool should make this allocation-free
// once warm.
func BenchmarkOverflowSpillFree(b *testing.B) {
	d := New(Config{Slices: 1, SetsPerSlice: 1, Ways: 8, ZeroDEV: true})
	for a := uint64(0); a < 8; a++ {
		d.Allocate(a, 0, Shared)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(8 + i)
		if _, spilled, ok := d.Allocate(a, 0, Shared); ok {
			d.Free(d.OverflowPtr(spilled.Addr))
		}
	}
}

// TestOverflowChurnNoAllocs guards the pooled overflow path: after the pool
// warms up, the spill/free cycle must not allocate per operation.
func TestOverflowChurnNoAllocs(t *testing.T) {
	d := New(Config{Slices: 1, SetsPerSlice: 1, Ways: 8, ZeroDEV: true})
	next := uint64(0)
	for ; next < 64; next++ { // warm the pool and the overflow map
		if _, spilled, ok := d.Allocate(next, 0, Shared); ok {
			d.Free(d.OverflowPtr(spilled.Addr))
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		_, spilled, ok := d.Allocate(next, 0, Shared)
		next++
		if ok {
			d.Free(d.OverflowPtr(spilled.Addr))
		}
	}); n != 0 {
		t.Errorf("overflow spill/free cycle allocates %v per op; want 0", n)
	}
}
