package directory

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkDir(zeroDEV bool) *Directory {
	return New(Config{Slices: 2, SetsPerSlice: 4, Ways: 2, ZeroDEV: zeroDEV})
}

func TestSharersBitset(t *testing.T) {
	var s Sharers
	for _, c := range []int{0, 7, 63, 64, 127, 200} {
		s.Set(c)
		if !s.Has(c) {
			t.Errorf("Has(%d) false after Set", c)
		}
	}
	if s.Count() != 6 {
		t.Errorf("Count = %d, want 6", s.Count())
	}
	var seen []int
	s.ForEach(func(c int) { seen = append(seen, c) })
	want := []int{0, 7, 63, 64, 127, 200}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach order = %v, want %v", seen, want)
		}
	}
	s.Clear(63)
	if s.Has(63) || s.Count() != 5 {
		t.Error("Clear failed")
	}
}

func TestSharersOnly(t *testing.T) {
	var s Sharers
	s.Set(130)
	if s.Only() != 130 {
		t.Errorf("Only = %d", s.Only())
	}
	s.Set(2)
	defer func() {
		if recover() == nil {
			t.Error("Only with two sharers did not panic")
		}
	}()
	s.Only()
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(9): "?"} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestLookupAllocateFree(t *testing.T) {
	d := mkDir(false)
	if e, _ := d.Lookup(100); e != nil {
		t.Fatal("lookup hit in empty directory")
	}
	p, ev, _ := d.Allocate(100, 3, Exclusive)
	if ev != nil {
		t.Fatal("allocation into empty directory evicted")
	}
	e, p2 := d.Lookup(100)
	if e == nil || !e.Sharers.Has(3) || e.State != Exclusive {
		t.Fatalf("bad entry after allocate: %+v", e)
	}
	if p2 != p {
		t.Errorf("lookup ptr %+v != alloc ptr %+v", p2, p)
	}
	if d.At(p) != e {
		t.Error("At(ptr) returned different entry")
	}
	d.Free(p)
	if d.Tracked(100) {
		t.Fatal("still tracked after Free")
	}
	if d.Stats.Frees != 1 {
		t.Errorf("Frees = %d", d.Stats.Frees)
	}
}

func TestAllocateTrackedPanics(t *testing.T) {
	wantPanic := func(name string, d *Directory, addr uint64) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: allocating tracked block %#x did not panic", name, addr)
			}
		}()
		d.Allocate(addr, 1, Shared)
	}
	d := mkDir(false)
	d.Allocate(5, 0, Shared)
	wantPanic("set-resident", d, 5)

	// A ZeroDEV spill moves the entry to the overflow map, where only the
	// overflow check finds it (slice 0, set 0 holds two ways).
	z := mkDir(true)
	for _, a := range []uint64{0, 8, 16} {
		z.Allocate(a, 0, Shared)
	}
	if z.OverflowCount() != 1 {
		t.Fatalf("overflow holds %d entries, want 1", z.OverflowCount())
	}
	var spilt uint64
	z.ForEach(func(e *Entry, p Ptr) {
		if p.Way < 0 {
			spilt = e.Addr
		}
	})
	wantPanic("overflow-resident", z, spilt)
}

func TestConflictEviction(t *testing.T) {
	d := mkDir(false)
	// Slice 0, same set: addresses with equal low bits and equal set bits.
	// SliceOf = addr & 1, setOf = (addr>>1) & 3. Use addrs 0, 8, 16 (slice 0, set 0).
	d.Allocate(0, 0, Shared)
	d.Allocate(8, 0, Shared)
	_, ev, spilled := d.Allocate(16, 0, Shared)
	if ev == nil || spilled {
		t.Fatal("full set allocation did not evict")
	}
	if ev.Addr != 0 && ev.Addr != 8 {
		t.Errorf("evicted unexpected entry %#x", ev.Addr)
	}
	if d.Tracked(ev.Addr) {
		t.Error("evicted entry still tracked")
	}
	if d.Stats.Evictions != 1 {
		t.Errorf("Evictions = %d", d.Stats.Evictions)
	}
}

func TestZeroDEVSpill(t *testing.T) {
	d := mkDir(true)
	d.Allocate(0, 0, Shared)
	d.Allocate(8, 1, Shared)
	_, ev, spilled := d.Allocate(16, 2, Shared)
	if ev == nil || !spilled {
		t.Fatal("ZeroDEV mode did not spill its victim")
	}
	if d.Stats.Spills != 1 {
		t.Errorf("Spills = %d", d.Stats.Spills)
	}
	// All three must still be tracked.
	for _, a := range []uint64{0, 8, 16} {
		if !d.Tracked(a) {
			t.Errorf("block %#x lost by ZeroDEV spill", a)
		}
	}
	if d.OverflowCount() != 1 {
		t.Errorf("OverflowCount = %d", d.OverflowCount())
	}
	// Freeing an overflow entry works through its pointer.
	e, p := d.Lookup(0)
	if e == nil {
		// 0 or 8 was spilled; find which.
		e, p = d.Lookup(8)
	}
	_ = e
	if p.Way >= 0 {
		// Locate the overflow-resident one.
		for _, a := range []uint64{0, 8} {
			if ee, pp := d.Lookup(a); ee != nil && pp.Way < 0 {
				p = pp
			}
		}
	}
	if p.Way >= 0 {
		t.Fatal("no overflow pointer found")
	}
	d.Free(p)
	if d.OverflowCount() != 0 {
		t.Error("overflow entry not freed")
	}
}

func TestRelocatedExtension(t *testing.T) {
	d := mkDir(false)
	p, _, _ := d.Allocate(42, 1, Modified)
	e := d.At(p)
	e.Relocated = true
	e.Loc = Location{Bank: 1, Set: 9, Way: 3}
	e2, _ := d.Lookup(42)
	if !e2.Relocated || e2.Loc != (Location{Bank: 1, Set: 9, Way: 3}) {
		t.Errorf("relocated state lost: %+v", e2)
	}
}

func TestSizeFor(t *testing.T) {
	// Paper: 8 cores, 512 KB L2 (8192 blocks), 8 slices, 8 ways, 2x
	// -> 16384 entries/slice -> 2048 sets.
	if got := SizeFor(8, 8192, 8, 8, 2.0); got != 2048 {
		t.Errorf("SizeFor(512KB) = %d sets, want 2048", got)
	}
	// 256 KB L2 (4096 blocks) -> 1024 sets.
	if got := SizeFor(8, 4096, 8, 8, 2.0); got != 1024 {
		t.Errorf("SizeFor(256KB) = %d sets, want 1024", got)
	}
	// Quarter-size directory: 1/4 of 2x is 0.5x -> 256 sets.
	if got := SizeFor(8, 4096, 8, 8, 0.5); got != 256 {
		t.Errorf("SizeFor(0.5x) = %d sets, want 256", got)
	}
	// Non-power-of-two rounds down.
	if got := SizeFor(8, 12288, 8, 12, 2.0); got != 2048 {
		t.Errorf("SizeFor(768KB,12w) = %d sets, want 2048", got)
	}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Slices: 0, SetsPerSlice: 4, Ways: 2},
		{Slices: 3, SetsPerSlice: 4, Ways: 2},
		{Slices: 2, SetsPerSlice: 0, Ways: 2},
		{Slices: 2, SetsPerSlice: 5, Ways: 2},
		{Slices: 2, SetsPerSlice: 4, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// refWay is one way of the reference directory: the tracked address of a
// valid entry and the way's NRU reference bit.
type refWay struct {
	valid bool
	addr  uint64
	ref   bool
}

// refDir is the reference model of a directory: every set as a slice of
// ways, with the paper's 1-bit NRU written out directly, plus the ZeroDEV
// overflow as a set of addresses.
type refDir struct {
	slices, sets int
	ways         [][]refWay // indexed by slice*sets + set
	overflow     map[uint64]bool
}

func newRefDir(slices, sets, ways int) *refDir {
	r := &refDir{slices: slices, sets: sets, ways: make([][]refWay, slices*sets), overflow: map[uint64]bool{}}
	for i := range r.ways {
		r.ways[i] = make([]refWay, ways)
	}
	return r
}

// set returns the ways of blockAddr's set: slice from the low address
// bits, set from the bits above them.
func (r *refDir) set(blockAddr uint64) []refWay {
	slice := int(blockAddr % uint64(r.slices))
	set := int(blockAddr / uint64(r.slices) % uint64(r.sets))
	return r.ways[slice*r.sets+set]
}

// find returns the way tracking blockAddr in its set, or -1.
func (r *refDir) find(blockAddr uint64) int {
	for w, x := range r.set(blockAddr) {
		if x.valid && x.addr == blockAddr {
			return w
		}
	}
	return -1
}

// refTouch sets way w's reference bit; when every bit of the set is then
// set, all but w's clear.
func refTouch(set []refWay, w int) {
	set[w].ref = true
	for _, x := range set {
		if !x.ref {
			return
		}
	}
	for i := range set {
		set[i].ref = i == w
	}
}

// allocate installs blockAddr in the first invalid way of its set, or else
// in the first unreferenced way (way 0 when every way is referenced), and
// returns that way and the address it displaced, if any.
func (r *refDir) allocate(blockAddr uint64) (way int, victim uint64, evicted bool) {
	set := r.set(blockAddr)
	way = -1
	for w, x := range set {
		if !x.valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = 0
		for w, x := range set {
			if !x.ref {
				way = w
				break
			}
		}
		victim, evicted = set[way].addr, true
	}
	set[way].valid, set[way].addr = true, blockAddr
	refTouch(set, way)
	return way, victim, evicted
}

// Property: the directory evicts (or, in ZeroDEV mode, spills) exactly the
// entry the reference NRU names, places every allocation in the way the
// reference does, and tracks exactly the reference's addresses. Lookup hits
// touch the reference bits and frees clear them, so the op mix reaches
// every NRU rule. Lookups of untracked blocks miss, and Stats counts every
// lookup and every hit, in the main array and the overflow alike.
func TestDirectoryModelProperty(t *testing.T) {
	const slices, sets = 2, 2
	run := func(seed int64, zeroDEV bool, ways int) error {
		rng := rand.New(rand.NewSource(seed))
		d := New(Config{Slices: slices, SetsPerSlice: sets, Ways: ways, ZeroDEV: zeroDEV})
		ref := newRefDir(slices, sets, ways)
		span := 3 * slices * sets * ways
		var lookups, hits uint64
		for i := 0; i < 400; i++ {
			a := uint64(rng.Intn(span))
			w := ref.find(a)
			tracked := w >= 0 || ref.overflow[a]
			switch {
			case !tracked && rng.Intn(4) == 0:
				if e, p := d.Lookup(a); e != nil || p != (Ptr{}) {
					return fmt.Errorf("step %d: Lookup(%d) of an untracked block returned %v, %+v", i, a, e != nil, p)
				}
				lookups++
			case !tracked:
				p, ev, spilled := d.Allocate(a, rng.Intn(8), Shared)
				rw, victim, evicted := ref.allocate(a)
				if p.Way != rw {
					return fmt.Errorf("step %d: Allocate(%d) took way %d, reference way %d", i, a, p.Way, rw)
				}
				if (ev != nil) != evicted {
					return fmt.Errorf("step %d: Allocate(%d) displaced %v, reference displaced %v", i, a, ev != nil, evicted)
				}
				if evicted {
					if ev.Addr != victim || spilled != zeroDEV {
						return fmt.Errorf("step %d: Allocate(%d) displaced %d (spilled %v), reference %d (spilled %v)", i, a, ev.Addr, spilled, victim, zeroDEV)
					}
					if zeroDEV {
						ref.overflow[victim] = true
					}
				}
			case rng.Intn(2) == 0:
				e, p := d.Lookup(a)
				if e == nil || e.Addr != a {
					return fmt.Errorf("step %d: Lookup(%d) missed a tracked block", i, a)
				}
				if p.Way != w {
					return fmt.Errorf("step %d: Lookup(%d) found way %d, reference way %d", i, a, p.Way, w)
				}
				if w >= 0 {
					refTouch(ref.set(a), w)
				}
				lookups++
				hits++
			default:
				_, p, ok := d.Find(a)
				if !ok {
					return fmt.Errorf("step %d: Find(%d) missed a tracked block", i, a)
				}
				d.Free(p)
				if w >= 0 {
					ref.set(a)[w] = refWay{}
				} else {
					delete(ref.overflow, a)
				}
			}
		}
		n := len(ref.overflow)
		for _, set := range ref.ways {
			for w, x := range set {
				if !x.valid {
					continue
				}
				n++
				if _, p, ok := d.Find(x.addr); !ok || p.Way != w {
					return fmt.Errorf("block %d: Find = way %d, %v; reference way %d", x.addr, p.Way, ok, w)
				}
			}
		}
		for a := range ref.overflow {
			if _, p, ok := d.Find(a); !ok || p.Way >= 0 {
				return fmt.Errorf("block %d: not in the overflow", a)
			}
		}
		if got := d.ValidCount(); got != n {
			return fmt.Errorf("ValidCount = %d, reference %d", got, n)
		}
		if d.Stats.Lookups != lookups || d.Stats.Hits != hits {
			return fmt.Errorf("Stats.Lookups = %d, Stats.Hits = %d; reference %d, %d", d.Stats.Lookups, d.Stats.Hits, lookups, hits)
		}
		return nil
	}
	f := func(seed int64, zeroDEV bool, pick uint8) bool {
		ways := [...]int{1, 2, 3, 8}[pick%4]
		if err := run(seed, zeroDEV, ways); err != nil {
			t.Logf("seed %d, ZeroDEV %v, %d ways: %v", seed, zeroDEV, ways, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroDEVSpillReturnsSpilledEntry(t *testing.T) {
	d := mkDir(true)
	d.Allocate(0, 0, Shared)
	p8, _, _ := d.Allocate(8, 1, Shared)
	// Mark entry 8 relocated so the spill carries that state.
	e8 := d.At(p8)
	e8.Relocated = true
	e8.Loc = Location{Bank: 1, Set: 2, Way: 3}
	_, spilled, ok := d.Allocate(16, 2, Shared)
	if spilled == nil || !ok {
		t.Fatal("spill did not return the spilled entry")
	}
	if spilled.Addr != 0 && spilled.Addr != 8 {
		t.Fatalf("unexpected spilled entry %#x", spilled.Addr)
	}
	// The spilled entry remains reachable through its overflow pointer.
	op := d.OverflowPtr(spilled.Addr)
	if got := d.At(op); got == nil || got.Addr != spilled.Addr {
		t.Fatal("overflow pointer does not resolve to the spilled entry")
	}
	if spilled.Addr == 8 && !spilled.Relocated {
		t.Error("spill lost the Relocated state")
	}
}
