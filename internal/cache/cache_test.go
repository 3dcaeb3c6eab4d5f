package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zivsim/internal/policy"
)

func mkCache(t *testing.T, sets, ways int) *Cache {
	t.Helper()
	return New("test", sets, ways, policy.NewLRU())
}

// fill inserts blockAddr the way the hierarchy's fill paths do — an
// invalid way if the set has one, else the policy's victim — and returns
// the evicted block (Valid=false when an invalid way absorbed the fill).
func fill(c *Cache, blockAddr uint64, dirty, writable bool, m policy.Meta) (victim Block) {
	set := c.SetIndex(blockAddr)
	way := c.InvalidWay(set)
	if way < 0 {
		way = c.Victim(set)
		victim = c.EvictWay(set, way)
	}
	c.FillWay(set, way, blockAddr, dirty, writable, m)
	return victim
}

// validCount counts the valid blocks of the whole cache.
func validCount(c *Cache) int {
	n := 0
	for i := range c.blocks {
		if c.blocks[i].Valid {
			n++
		}
	}
	return n
}

func TestBlockAddr(t *testing.T) {
	if got := BlockAddr(0); got != 0 {
		t.Errorf("BlockAddr(0) = %d", got)
	}
	if got := BlockAddr(63); got != 0 {
		t.Errorf("BlockAddr(63) = %d, want 0", got)
	}
	if got := BlockAddr(64); got != 1 {
		t.Errorf("BlockAddr(64) = %d, want 1", got)
	}
	if got := BlockAddr(0xfff40); got != 0xfff40>>6 {
		t.Errorf("BlockAddr mismatch")
	}
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ sets, ways int }{
		{0, 4}, {3, 4}, {-8, 4}, {8, 0}, {8, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.sets, tc.ways)
				}
			}()
			New("bad", tc.sets, tc.ways, policy.NewLRU())
		}()
	}
}

// TestSizeBytes pins the capacity a geometry gives: a 64-set, 8-way
// cache holds exactly 64*8 blocks (32 KB) — every block of a full
// sweep fits without an eviction, and one more block evicts.
func TestSizeBytes(t *testing.T) {
	c := mkCache(t, 64, 8)
	for a := uint64(0); a < 64*8; a++ {
		if v := fill(c, a, false, false, policy.Meta{Addr: a}); v.Valid {
			t.Fatalf("fill %d evicted %+v below capacity", a, v)
		}
	}
	if got, want := validCount(c)*BlockBytes, 64*8*64; got != want {
		t.Errorf("resident bytes = %d, want %d", got, want)
	}
	if v := fill(c, 64*8, false, false, policy.Meta{Addr: 64 * 8}); !v.Valid {
		t.Error("fill beyond capacity evicted nothing")
	}
}

func TestFillLookupHitMiss(t *testing.T) {
	c := mkCache(t, 4, 2)
	if _, hit := c.Lookup(100); hit {
		t.Fatal("unexpected hit in empty cache")
	}
	v := fill(c, 100, false, false, policy.Meta{Addr: 100})
	if v.Valid {
		t.Fatal("fill into empty cache evicted something")
	}
	way, hit := c.Lookup(100)
	if !hit {
		t.Fatal("miss after fill")
	}
	if b := c.Block(c.SetIndex(100), way); b.Addr != 100 || !b.Valid {
		t.Fatalf("bad block state: %+v", b)
	}
}

func TestAccessCountsAndDirty(t *testing.T) {
	c := mkCache(t, 4, 2)
	fill(c, 8, false, true, policy.Meta{Addr: 8})
	if _, hit := c.Access(8, true, policy.Meta{Addr: 8}); !hit {
		t.Fatal("expected hit")
	}
	if _, hit := c.Access(12, false, policy.Meta{Addr: 12}); hit {
		t.Fatal("expected miss")
	}
	set, _ := c.SetIndex(8), 0
	way, _ := c.Lookup(8)
	if !c.Block(set, way).Dirty {
		t.Error("write access did not set dirty")
	}
	if c.Stats.Accesses != 2 || c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mkCache(t, 1, 2)
	fill(c, 1, false, false, policy.Meta{Addr: 1})
	fill(c, 2, false, false, policy.Meta{Addr: 2})
	// Touch 1 so 2 becomes LRU.
	c.Access(1, false, policy.Meta{Addr: 1})
	v := fill(c, 3, false, false, policy.Meta{Addr: 3})
	if !v.Valid || v.Addr != 2 {
		t.Fatalf("evicted %+v, want block 2", v)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestInvalidate(t *testing.T) {
	c := mkCache(t, 4, 2)
	fill(c, 5, true, false, policy.Meta{Addr: 5})
	b, ok := c.Invalidate(5)
	if !ok || !b.Dirty || b.Addr != 5 {
		t.Fatalf("Invalidate returned %+v, %v", b, ok)
	}
	if c.Contains(5) {
		t.Fatal("block still present after invalidate")
	}
	if _, ok := c.Invalidate(5); ok {
		t.Fatal("second invalidate succeeded")
	}
	if c.Stats.Invals != 1 {
		t.Errorf("Invals = %d, want 1", c.Stats.Invals)
	}
}

func TestEvictWayAndFillWay(t *testing.T) {
	c := mkCache(t, 2, 2)
	fill(c, 2, true, false, policy.Meta{Addr: 2})
	set := c.SetIndex(2)
	way, _ := c.Lookup(2)
	b := c.EvictWay(set, way)
	if b.Addr != 2 || !b.Dirty {
		t.Fatalf("EvictWay returned %+v", b)
	}
	if c.Stats.DirtyEvicts != 1 {
		t.Errorf("DirtyEvicts = %d", c.Stats.DirtyEvicts)
	}
	c.FillWay(set, way, 4, false, false, policy.Meta{Addr: 4})
	if !c.Contains(4) {
		t.Fatal("FillWay did not install block")
	}
}

func TestFillWayPanics(t *testing.T) {
	c := mkCache(t, 2, 1)
	fill(c, 0, false, false, policy.Meta{})
	t.Run("valid way", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("FillWay into valid way did not panic")
			}
		}()
		c.FillWay(0, 0, 2, false, false, policy.Meta{})
	})
	t.Run("wrong set", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("FillWay with wrong set did not panic")
			}
		}()
		c.FillWay(1, 0, 2, false, false, policy.Meta{}) // block 2 maps to set 0
	})
}

func TestEvictWayInvalidPanics(t *testing.T) {
	c := mkCache(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("EvictWay on invalid way did not panic")
		}
	}()
	c.EvictWay(0, 0)
}

func TestValidCountAndForEach(t *testing.T) {
	c := mkCache(t, 4, 2)
	for i := uint64(0); i < 5; i++ {
		fill(c, i, false, false, policy.Meta{Addr: i})
	}
	if got := validCount(c); got != 5 {
		t.Errorf("valid blocks = %d, want 5", got)
	}
	seen := map[uint64]bool{}
	c.ForEachValid(func(_, _ int, b Block) { seen[b.Addr] = true })
	if len(seen) != 5 {
		t.Errorf("ForEachValid visited %d blocks, want 5", len(seen))
	}
}

// Property: after any sequence of fills and accesses, the number of valid
// blocks never exceeds capacity, residency matches a model map per set, and
// a fill always makes its block resident.
func TestCacheResidencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mkCache(t, 8, 4)
		for i := 0; i < 500; i++ {
			a := uint64(rng.Intn(128))
			if rng.Intn(2) == 0 {
				c.Access(a, rng.Intn(2) == 0, policy.Meta{Addr: a})
			} else if !c.Contains(a) { // fill-on-miss, as the hierarchy does
				fill(c, a, false, false, policy.Meta{Addr: a})
				if !c.Contains(a) {
					return false
				}
			}
			if validCount(c) > 8*4 {
				return false
			}
		}
		// No duplicate tags anywhere.
		seen := map[uint64]int{}
		c.ForEachValid(func(_, _ int, b Block) { seen[b.Addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fill never evicts when an invalid way exists in the target set.
func TestFillPrefersInvalidWays(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mkCache(t, 4, 4)
		for i := 0; i < 200; i++ {
			a := uint64(rng.Intn(64))
			if c.Contains(a) {
				continue
			}
			set := c.SetIndex(a)
			hadInvalid := c.InvalidWay(set) >= 0
			v := fill(c, a, false, false, policy.Meta{Addr: a})
			if hadInvalid && v.Valid {
				return false
			}
			if !hadInvalid && !v.Valid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	c := New("dl1", 8, 4, policy.NewLRU())
	if c.name != "dl1" || c.sets != 8 || c.Ways() != 4 {
		t.Error("accessors wrong")
	}
	if _, ok := c.pol.(*policy.LRU); !ok {
		t.Errorf("policy = %T, want *policy.LRU", c.pol)
	}
}

// TestVictimRankMatchesPolicy pins Victim to the policy's rank order:
// the MRU way ranks last and Victim is the first way of the rank.
func TestVictimRankMatchesPolicy(t *testing.T) {
	c := New("t", 1, 3, policy.NewLRU())
	for i := uint64(0); i < 3; i++ {
		fill(c, i, false, false, policy.Meta{Addr: i})
	}
	c.Access(0, false, policy.Meta{Addr: 0}) // 0 becomes MRU
	r := c.pol.Rank(0)
	if len(r) != 3 || r[len(r)-1] != 0 {
		t.Errorf("Rank = %v; MRU way (block 0's) should rank last", r)
	}
	if v := c.Victim(0); v != r[0] {
		t.Errorf("Victim = %d, want Rank[0] = %d", v, r[0])
	}
}
