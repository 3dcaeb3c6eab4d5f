package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

func mkCache(t *testing.T, sets, ways int) *Cache {
	t.Helper()
	return New("test", sets, ways)
}

// fill inserts blockAddr the way the hierarchy's fill paths do — into the
// set's Victim way, evicting its block first when it holds one — and
// returns the evicted block and whether there was one.
func fill(c *Cache, blockAddr uint64, dirty, writable bool) (victim Block, evicted bool) {
	set := c.SetIndex(blockAddr)
	way, valid := c.Victim(set)
	if valid {
		victim = c.EvictWay(set, way)
	}
	c.FillWay(set, way, blockAddr, dirty, writable)
	return victim, valid
}

// contents lists the valid blocks of the whole cache in ForEachValid order.
func contents(c *Cache) []Block {
	var out []Block
	c.ForEachValid(func(b Block) { out = append(out, b) })
	return out
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
			New("bad", tc.sets, tc.ways)
		}()
	}
}

// TestSizeBytes pins the capacity a geometry gives: a 64-set, 8-way
// cache holds exactly 64*8 blocks (32 KB) — every block of a full
// sweep fits without an eviction, and one more block evicts.
func TestSizeBytes(t *testing.T) {
	c := mkCache(t, 64, 8)
	for a := uint64(0); a < 64*8; a++ {
		if v, evicted := fill(c, a, false, false); evicted {
			t.Fatalf("fill %d evicted %+v below capacity", a, v)
		}
	}
	if got, want := len(contents(c))*BlockBytes, 64*8*64; got != want {
		t.Errorf("resident bytes = %d, want %d", got, want)
	}
	if _, evicted := fill(c, 64*8, false, false); !evicted {
		t.Error("fill beyond capacity evicted nothing")
	}
}

func TestFillLookupHitMiss(t *testing.T) {
	c := mkCache(t, 4, 2)
	if _, hit := c.Lookup(100); hit {
		t.Fatal("unexpected hit in empty cache")
	}
	if _, evicted := fill(c, 100, false, false); evicted {
		t.Fatal("fill into empty cache evicted something")
	}
	if _, hit := c.Lookup(100); !hit {
		t.Fatal("miss after fill")
	}
	if got := contents(c); len(got) != 1 || got[0] != (Block{Addr: 100}) {
		t.Fatalf("bad block state: %+v", got)
	}
}

func TestAccessCountsAndDirty(t *testing.T) {
	c := mkCache(t, 4, 2)
	fill(c, 8, false, true)
	if _, hit := c.Access(8, true); !hit {
		t.Fatal("expected hit")
	}
	if _, hit := c.Access(12, false); hit {
		t.Fatal("expected miss")
	}
	if b, _ := c.Invalidate(8); !b.Dirty {
		t.Error("write access did not set dirty")
	}
	if c.Contains(12) {
		t.Error("a missed Access installed the block")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mkCache(t, 1, 2)
	fill(c, 1, false, false)
	fill(c, 2, false, false)
	// Touch 1 so 2 becomes LRU.
	c.Access(1, false)
	v, evicted := fill(c, 3, false, false)
	if !evicted || v.Addr != 2 {
		t.Fatalf("evicted %+v (%v), want block 2", v, evicted)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestInvalidate(t *testing.T) {
	c := mkCache(t, 4, 2)
	fill(c, 5, true, false)
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
}

func TestEvictWayAndFillWay(t *testing.T) {
	c := mkCache(t, 2, 2)
	fill(c, 2, true, false)
	set := c.SetIndex(2)
	way, _ := c.Lookup(2)
	b := c.EvictWay(set, way)
	if b.Addr != 2 || !b.Dirty {
		t.Fatalf("EvictWay returned %+v", b)
	}
	c.FillWay(set, way, 4, false, false)
	if !c.Contains(4) {
		t.Fatal("FillWay did not install block")
	}
}

func TestFillWayPanics(t *testing.T) {
	c := mkCache(t, 2, 1)
	fill(c, 0, false, false)
	t.Run("valid way", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("FillWay into valid way did not panic")
			}
		}()
		c.FillWay(0, 0, 2, false, false)
	})
	t.Run("wrong set", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("FillWay with wrong set did not panic")
			}
		}()
		c.FillWay(1, 0, 2, false, false) // block 2 maps to set 0
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
		fill(c, i, false, false)
	}
	seen := map[uint64]bool{}
	for _, b := range contents(c) {
		seen[b.Addr] = true
	}
	if len(seen) != 5 {
		t.Errorf("ForEachValid visited %d blocks, want 5", len(seen))
	}
}

func TestAccessors(t *testing.T) {
	c := New("dl1", 8, 4)
	if c.name != "dl1" || c.Ways() != 4 || c.SetIndex(8*3+5) != 5 {
		t.Error("accessors wrong")
	}
}

// refEntry is one valid way of the reference cache.
type refEntry struct {
	addr            uint64
	dirty, writable bool
	tick            uint64 // last fill or hit
}

// refCache is the obviously-correct model of Cache: each set is a slice of
// ways, nil for an invalid way, and one global tick orders every fill and
// hit.
type refCache struct {
	sets [][]*refEntry
	tick uint64
}

func newRefCache(sets, ways int) *refCache {
	r := &refCache{sets: make([][]*refEntry, sets)}
	for s := range r.sets {
		r.sets[s] = make([]*refEntry, ways)
	}
	return r
}

func (r *refCache) setOf(addr uint64) int { return int(addr % uint64(len(r.sets))) }

// find returns the way holding addr, or -1.
func (r *refCache) find(addr uint64) int {
	for w, e := range r.sets[r.setOf(addr)] {
		if e != nil && e.addr == addr {
			return w
		}
	}
	return -1
}

// victim returns the lowest invalid way, or else the way with the smallest
// tick (lowest index on ties), and whether that way is valid.
func (r *refCache) victim(set int) (int, bool) {
	ways := r.sets[set]
	for w, e := range ways {
		if e == nil {
			return w, false
		}
	}
	best := 0
	for w, e := range ways {
		if e.tick < ways[best].tick {
			best = w
		}
	}
	return best, true
}

func (r *refCache) touch(e *refEntry) {
	r.tick++
	e.tick = r.tick
}

func (e *refEntry) block() Block {
	return Block{Dirty: e.dirty, Writable: e.writable, Addr: e.addr}
}

// contents lists the valid blocks in set then way order.
func (r *refCache) contents() []Block {
	var out []Block
	for _, ways := range r.sets {
		for _, e := range ways {
			if e != nil {
				out = append(out, e.block())
			}
		}
	}
	return out
}

// Geometries FuzzCacheMatchesReference decodes from its first input byte.
var (
	fuzzSets = [...]int{1, 2, 8}
	fuzzWays = [...]int{1, 2, 3, 8, 12, 64}
)

// FuzzCacheMatchesReference drives a Cache and the refCache model with the
// same op stream on a decoded geometry, and requires the same answer from
// every op and the same contents after it. The first input byte picks the
// geometry; each following 3-byte group is one op (its kind, then the
// address) over addresses spanning three times the capacity, so the stream
// both hits and conflicts.
func FuzzCacheMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < len(fuzzSets)*len(fuzzWays); g++ {
		ops := make([]byte, 1+3*400)
		rng.Read(ops)
		ops[0] = byte(g)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := int(data[0]) % (len(fuzzSets) * len(fuzzWays))
		sets, ways := fuzzSets[g%len(fuzzSets)], fuzzWays[g/len(fuzzSets)]
		span := 3 * sets * ways
		c, ref := New("fuzz", sets, ways), newRefCache(sets, ways)
		data = data[1:]
		for step := 0; len(data) >= 3 && step < 1000; step, data = step+1, data[3:] {
			op := data[0]
			addr := uint64((int(data[1])<<8 | int(data[2])) % span)
			set := c.SetIndex(addr)
			rw := ref.find(addr)
			switch op % 8 {
			case 0, 1: // Access, a read or a write
				write := op%8 == 1
				way, hit := c.Access(addr, write)
				if hit != (rw >= 0) || (hit && way != rw) {
					t.Fatalf("step %d: Access(%d) = way %d, hit %v; reference way %d", step, addr, way, hit, rw)
				}
				if hit {
					e := ref.sets[set][rw]
					e.dirty = e.dirty || write
					ref.touch(e)
				}
			case 2, 3, 4: // fill on a miss: Victim, EvictWay, FillWay
				if rw >= 0 {
					break
				}
				dirty, writable := op&0x10 != 0, op&0x20 != 0
				way, valid := c.Victim(set)
				rway, rvalid := ref.victim(set)
				if way != rway || valid != rvalid {
					t.Fatalf("step %d: Victim(%d) = %d, %v; reference %d, %v", step, set, way, valid, rway, rvalid)
				}
				if valid {
					if got, want := c.EvictWay(set, way), ref.sets[set][way].block(); got != want {
						t.Fatalf("step %d: EvictWay(%d, %d) = %+v, reference %+v", step, set, way, got, want)
					}
				}
				c.FillWay(set, way, addr, dirty, writable)
				e := &refEntry{addr: addr, dirty: dirty, writable: writable}
				ref.sets[set][way] = e
				ref.touch(e)
			case 5: // Invalidate
				got, ok := c.Invalidate(addr)
				if ok != (rw >= 0) {
					t.Fatalf("step %d: Invalidate(%d) ok = %v, reference resident %v", step, addr, ok, rw >= 0)
				}
				if ok {
					if want := ref.sets[set][rw].block(); got != want {
						t.Fatalf("step %d: Invalidate(%d) = %+v, reference %+v", step, addr, got, want)
					}
					ref.sets[set][rw] = nil
				}
			default: // SetDirty, SetWritable or Downgrade on a resident block
				if rw < 0 {
					break
				}
				e := ref.sets[set][rw]
				switch (op >> 3) % 3 {
				case 0:
					c.SetDirty(set, rw)
					e.dirty = true
				case 1:
					c.SetWritable(set, rw)
					e.writable = true
				default:
					if got := c.Downgrade(set, rw); got != e.dirty {
						t.Fatalf("step %d: Downgrade(%d, %d) = %v, reference dirty %v", step, set, rw, got, e.dirty)
					}
					e.dirty, e.writable = false, false
				}
				if got := c.Writable(set, rw); got != e.writable {
					t.Fatalf("step %d: Writable(%d, %d) = %v, reference %v", step, set, rw, got, e.writable)
				}
			}
			way, valid := c.Victim(set)
			if rway, rvalid := ref.victim(set); way != rway || valid != rvalid {
				t.Fatalf("step %d: after op %d, Victim(%d) = %d, %v; reference %d, %v", step, op%8, set, way, valid, rway, rvalid)
			}
			if got, want := contents(c), ref.contents(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: after op %d, contents %+v; reference %+v", step, op%8, got, want)
			}
		}
	})
}
