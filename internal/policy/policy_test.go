package policy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// exercise drives a policy through a deterministic mixed workload on one set.
func exercise(p Policy, sets, ways int, seed int64, steps int) {
	p.Init(sets, ways)
	rng := rand.New(rand.NewSource(seed))
	valid := make([][]bool, sets)
	for s := range valid {
		valid[s] = make([]bool, ways)
	}
	for i := 0; i < steps; i++ {
		s := rng.Intn(sets)
		m := Meta{PC: uint64(rng.Intn(16)) * 4, Addr: uint64(rng.Intn(256)), Pos: uint64(i)}
		switch rng.Intn(4) {
		case 0: // fill into invalid way if any, else evict+fill
			w := -1
			for j := 0; j < ways; j++ {
				if !valid[s][j] {
					w = j
					break
				}
			}
			if w < 0 {
				w = p.Rank(s)[0]
				p.OnEvict(s, w)
			}
			p.OnFill(s, w, m)
			valid[s][w] = true
		case 1: // hit a valid way
			for j := 0; j < ways; j++ {
				if valid[s][j] {
					p.OnHit(s, j, m)
					break
				}
			}
		case 2: // invalidate a valid way
			for j := ways - 1; j >= 0; j-- {
				if valid[s][j] {
					p.OnInvalidate(s, j)
					valid[s][j] = false
					break
				}
			}
		case 3:
			_ = p.Rank(s)
		}
	}
}

func rankIsPermutation(r []int, ways int) bool {
	if len(r) != ways {
		return false
	}
	seen := make([]bool, ways)
	for _, w := range r {
		if w < 0 || w >= ways || seen[w] {
			return false
		}
		seen[w] = true
	}
	return true
}

// namedPolicy is one policy under test: its name and a constructor whose
// every call returns an identical fresh instance.
type namedPolicy struct {
	name string
	mk   func() Policy
}

// allPolicies lists the four policies; MIN consults oracle.
func allPolicies(oracle Oracle) []namedPolicy {
	return []namedPolicy{
		{"LRU", func() Policy { return NewLRU() }},
		{"SRRIP", func() Policy { return NewSRRIP() }},
		{"Hawkeye", func() Policy { return NewHawkeye(2) }},
		{"MIN", func() Policy { return NewMIN(oracle) }},
	}
}

// Property: for every policy, Rank always returns a permutation of the ways.
func TestRankIsPermutationProperty(t *testing.T) {
	for _, np := range allPolicies(NewStreamOracle([]uint64{1, 2, 3, 1, 2})) {
		t.Run(np.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				p := np.mk()
				exercise(p, 4, 4, seed, 300)
				for s := 0; s < 4; s++ {
					if !rankIsPermutation(p.Rank(s), 4) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLRUStackOrder(t *testing.T) {
	p := NewLRU()
	p.Init(1, 4)
	for w := 0; w < 4; w++ {
		p.OnFill(0, w, Meta{})
	}
	p.OnHit(0, 0, Meta{}) // 0 becomes MRU
	r := p.Rank(0)
	want := []int{1, 2, 3, 0}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("rank = %v, want %v", r, want)
		}
	}
	if got := p.Victim(0, 0xf); got != 1 {
		t.Errorf("Victim = %d, want 1", got)
	}
}

func TestLRUWayAfterEvict(t *testing.T) {
	p := NewLRU()
	p.Init(1, 3)
	for w := 0; w < 3; w++ {
		p.OnFill(0, w, Meta{})
	}
	p.OnEvict(0, 0)
	p.OnFill(0, 0, Meta{})
	if got := p.Victim(0, 0x7); got != 1 {
		t.Errorf("Victim = %d, want 1", got)
	}
}

func TestSRRIPInsertionAndPromotion(t *testing.T) {
	p := NewSRRIP()
	p.Init(1, 4)
	p.OnFill(0, 0, Meta{})
	if got := p.RRPV(0, 0); got != 2 {
		t.Errorf("fill RRPV = %d, want 2", got)
	}
	p.OnHit(0, 0, Meta{})
	if got := p.RRPV(0, 0); got != 0 {
		t.Errorf("hit RRPV = %d, want 0", got)
	}
	if p.MaxRRPV() != 3 {
		t.Errorf("MaxRRPV = %d, want 3", p.MaxRRPV())
	}
}

func TestSRRIPAgingOnRank(t *testing.T) {
	p := NewSRRIP()
	p.Init(1, 2)
	p.OnFill(0, 0, Meta{})
	p.OnFill(0, 1, Meta{})
	p.OnHit(0, 0, Meta{})
	p.OnHit(0, 1, Meta{})
	// Both RRPV 0; ranking must age them to max and pick way 0 first.
	r := p.Rank(0)
	if r[0] != 0 {
		t.Errorf("rank[0] = %d, want 0 (tie broken by way)", r[0])
	}
	if p.RRPV(0, 0) != 3 || p.RRPV(0, 1) != 3 {
		t.Errorf("aging failed: rrpvs = %d,%d", p.RRPV(0, 0), p.RRPV(0, 1))
	}
}

func TestSRRIPRanksDescendingRRPV(t *testing.T) {
	p := NewSRRIP()
	p.Init(1, 3)
	p.OnFill(0, 0, Meta{}) // 2
	p.OnFill(0, 1, Meta{}) // 2
	p.OnFill(0, 2, Meta{}) // 2
	p.OnHit(0, 1, Meta{})  // 0
	r := p.Rank(0)
	if r[len(r)-1] != 1 {
		t.Errorf("most recently promoted way should rank last: %v", r)
	}
}

func TestHawkeyeAverseInsertion(t *testing.T) {
	p := NewHawkeye(1) // sample every set
	p.Init(4, 4)
	// Train PC 0x100 negative: stream a long no-reuse scan through set 0.
	for i := 0; i < 200; i++ {
		w := i % 4
		p.OnEvict(0, w)
		p.OnFill(0, w, Meta{PC: 0x100, Addr: uint64(1000 + i)})
	}
	// Distinct addresses never reuse -> OPTgen never trains positive; the
	// counter stays at/below init, but with no reuse it never trains at all.
	// Now create reuse misses that exceed capacity: a circular pattern of 8
	// blocks in a 4-way set -> OPT hits half... verify averse classification
	// for a thrash pattern instead.
	p2 := NewHawkeye(1)
	p2.Init(1, 2)
	// Circular pattern over 6 blocks in a 2-way set: OPT can cache at most
	// 2; most reuses are OPT misses -> PC trains averse.
	for i := 0; i < 600; i++ {
		a := uint64(i % 6)
		m := Meta{PC: 0x200, Addr: a}
		// Simulate fills round-robin (policy-level test, no cache needed).
		w := i % 2
		p2.OnEvict(0, w)
		p2.OnFill(0, w, m)
	}
	if p2.pred.friendly(0x200) {
		t.Error("thrashing PC classified friendly")
	}
}

func TestHawkeyeFriendlyInsertion(t *testing.T) {
	p := NewHawkeye(1)
	p.Init(1, 4)
	// Two blocks reused constantly in a 4-way set: OPT always hits.
	for i := 0; i < 400; i++ {
		a := uint64(i % 2)
		m := Meta{PC: 0x300, Addr: a}
		p.OnHit(0, int(a), m)
	}
	if !p.pred.friendly(0x300) {
		t.Error("high-reuse PC classified averse")
	}
	p.OnFill(0, 2, Meta{PC: 0x300, Addr: 50})
	if got := p.RRPV(0, 2); got != 0 {
		t.Errorf("friendly fill RRPV = %d, want 0", got)
	}
}

func TestHawkeyeRanksAverseFirst(t *testing.T) {
	p := NewHawkeye(2)
	p.Init(2, 4)
	p.OnFill(1, 0, Meta{PC: 4, Addr: 1})
	p.rrpv[1*4+0] = 7
	p.rrpv[1*4+1] = 2
	p.rrpv[1*4+2] = 5
	p.rrpv[1*4+3] = 0
	r := p.Rank(1)
	want := []int{0, 2, 1, 3}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("rank = %v, want %v", r, want)
		}
	}
}

func TestHawkeyeDetrainOnEvict(t *testing.T) {
	p := NewHawkeye(1)
	p.Init(1, 2)
	pc := uint64(0x500)
	before := p.pred.ctr[pcIndex(pc)]
	p.OnFill(0, 0, Meta{PC: pc, Addr: 9})
	p.friendly[0] = true // force friendly so eviction detrains
	p.OnEvict(0, 0)
	after := p.pred.ctr[pcIndex(pc)]
	if after >= before && before > 0 {
		t.Errorf("eviction of friendly block did not detrain: %d -> %d", before, after)
	}
}

func TestStreamOracle(t *testing.T) {
	o := NewStreamOracle([]uint64{5, 7, 5, 9, 7, 5})
	if got := o.NextUse(5, 0); got != 2 {
		t.Errorf("NextUse(5, 0) = %d, want 2", got)
	}
	if got := o.NextUse(5, 2); got != 5 {
		t.Errorf("NextUse(5, 2) = %d, want 5", got)
	}
	if got := o.NextUse(5, 5); got != math.MaxUint64 {
		t.Errorf("NextUse(5, 5) = %d, want MaxUint64", got)
	}
	if got := o.NextUse(42, 0); got != math.MaxUint64 {
		t.Errorf("NextUse(42, 0) = %d, want MaxUint64", got)
	}
	if got := o.NextUse(7, 1); got != 4 {
		t.Errorf("NextUse(7, 1) = %d, want 4 (strictly after)", got)
	}
}

func TestMINVictimIsFurthestUse(t *testing.T) {
	// Stream positions: a=0,10 b=1,5 c=2,3.
	stream := make([]uint64, 11)
	stream[0], stream[10] = 100, 100
	stream[1], stream[5] = 200, 200
	stream[2], stream[3] = 300, 300
	p := NewMIN(NewStreamOracle(stream))
	p.Init(1, 3)
	p.OnFill(0, 0, Meta{Addr: 100, Pos: 0})
	p.OnFill(0, 1, Meta{Addr: 200, Pos: 1})
	p.OnFill(0, 2, Meta{Addr: 300, Pos: 2})
	r := p.Rank(0)
	// Next uses after pos 2: a@10, b@5, c@3 -> victim order a, b, c.
	want := []int{0, 1, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("rank = %v, want %v", r, want)
		}
	}
}

func TestMINNeverReusedRanksFirst(t *testing.T) {
	stream := []uint64{1, 2, 1, 2, 1, 2}
	p := NewMIN(NewStreamOracle(stream))
	p.Init(1, 3)
	p.OnFill(0, 0, Meta{Addr: 1, Pos: 0})
	p.OnFill(0, 1, Meta{Addr: 99, Pos: 1}) // never appears again
	p.OnFill(0, 2, Meta{Addr: 2, Pos: 1})
	if r := p.Rank(0); r[0] != 1 {
		t.Fatalf("rank = %v, want never-reused way 1 first", r)
	}
}

// Property: MIN on a single-set cache achieves at least as many hits as LRU
// for any access pattern (optimality smoke check via simulation).
func TestMINBeatsLRUProperty(t *testing.T) {
	sim := func(p Policy, stream []uint64, ways int) int {
		p.Init(1, ways)
		resident := map[uint64]int{}
		valid := make([]bool, ways)
		hits := 0
		for pos, a := range stream {
			m := Meta{Addr: a, Pos: uint64(pos)}
			if w, ok := resident[a]; ok {
				hits++
				p.OnHit(0, w, m)
				continue
			}
			w := -1
			for j := 0; j < ways; j++ {
				if !valid[j] {
					w = j
					break
				}
			}
			if w < 0 {
				w = p.Rank(0)[0]
				for addr, ww := range resident {
					if ww == w {
						delete(resident, addr)
						break
					}
				}
				p.OnEvict(0, w)
			}
			p.OnFill(0, w, m)
			resident[a] = w
			valid[w] = true
		}
		return hits
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]uint64, 400)
		for i := range stream {
			stream[i] = uint64(rng.Intn(12))
		}
		minHits := sim(NewMIN(NewStreamOracle(stream)), stream, 4)
		lruHits := sim(NewLRU(), stream, 4)
		return minHits >= lruHits
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
