package cache

import "testing"

func benchCache() *Cache {
	c := New("bench", 64, 16)
	for s := 0; s < 64; s++ {
		for w := 0; w < 16; w++ {
			fill(c, uint64(s+w*64), false, false)
		}
	}
	return c
}

// BenchmarkLookupMRUHit measures the single-probe fast path: repeated
// accesses to the set's most recently used way.
func BenchmarkLookupMRUHit(b *testing.B) {
	c := benchCache()
	c.Access(7, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := c.Lookup(7); !hit {
			b.Fatal("miss")
		}
	}
}

// BenchmarkLookupScanHit measures the tag scan: the hit way differs from
// the MRU hint on every probe.
func BenchmarkLookupScanHit(b *testing.B) {
	c := benchCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64((i % 16) * 64) // same set, rotating way
		if _, hit := c.Lookup(addr); !hit {
			b.Fatal("miss")
		}
	}
}

// BenchmarkLookupMiss measures a full-set scan that finds nothing.
func BenchmarkLookupMiss(b *testing.B) {
	c := benchCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := c.Lookup(1 << 30); hit {
			b.Fatal("hit")
		}
	}
}

// BenchmarkFillEvictChurn measures the full replacement cycle on a hot set.
func BenchmarkFillEvictChurn(b *testing.B) {
	c := benchCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(c, uint64(i)<<6, false, false)
	}
}

// TestHitPathNoAllocs guards the steady-state hit path: Lookup and Access
// must never allocate — they run for every simulated memory reference.
func TestHitPathNoAllocs(t *testing.T) {
	c := benchCache()
	if n := testing.AllocsPerRun(1000, func() {
		c.Lookup(7)
	}); n != 0 {
		t.Errorf("Lookup allocates %v per op; want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Access(7, false)
	}); n != 0 {
		t.Errorf("Access allocates %v per op; want 0", n)
	}
}

// TestFillPathNoAllocs guards the private-cache replacement cycle.
func TestFillPathNoAllocs(t *testing.T) {
	c := benchCache()
	addr := uint64(1 << 20)
	if n := testing.AllocsPerRun(1000, func() {
		fill(c, addr, false, false)
		addr += 64 << 6
	}); n != 0 {
		t.Errorf("fill allocates %v per op; want 0", n)
	}
}
