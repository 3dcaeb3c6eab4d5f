package policy

import (
	"math/rand"
	"reflect"
	"testing"
)

// firstRanked is Victim's specification: the first way of a Rank order
// whose bit is set in ways, or -1.
func firstRanked(order []int, ways uint64) int {
	for _, w := range order {
		if ways>>uint(w)&1 != 0 {
			return w
		}
	}
	return -1
}

// lockstepState returns p's replacement state without the scratch buffers
// Rank fills and Victim leaves alone, so two instances that made the same
// decisions compare equal whichever query each one answered.
func lockstepState(t *testing.T, p Policy) any {
	switch q := p.(type) {
	case *LRU:
		c := *q
		c.rankBuf = rankBuf{}
		return c
	case *SRRIP:
		c := *q
		c.rankBuf = rankBuf{}
		return c
	case *Hawkeye:
		c := *q
		c.rankBuf = rankBuf{}
		return c
	case *MIN:
		c := *q
		c.rankBuf = rankBuf{}
		c.nextUse = nil
		return c
	}
	t.Fatalf("no lockstep state for %T", p)
	return nil
}

// TestFirstInMatchesRank drives two identical instances of each policy with
// the same random hooks, on 8-way sets and on 64-way sets (one mask bit per
// way, the LLC's limit). At every query one instance answers Victim and the
// other Rank: Victim with a class mask must return the first Rank way in the
// mask, Victim with every way of the set (the baseline victim) Rank's first
// way, and the two instances' replacement state must stay equal afterwards,
// so the query has exactly Rank's side effects (SRRIP's aging).
func TestFirstInMatchesRank(t *testing.T) {
	const sets, steps = 4, 3000
	rng := rand.New(rand.NewSource(42))
	stream := make([]uint64, steps)
	for i := range stream {
		stream[i] = uint64(rng.Intn(48))
	}
	for _, np := range allPolicies(NewStreamOracle(stream)) {
		t.Run(np.name, func(t *testing.T) {
			for _, ways := range []int{8, 64} {
				lockstep(t, np.mk(), np.mk(), sets, ways, stream)
			}
		})
	}
}

// lockstep runs TestFirstInMatchesRank's random schedule on a and b, two
// fresh instances of one policy, over a sets x ways geometry.
func lockstep(t *testing.T, a, b Policy, sets, ways int, stream []uint64) {
	a.Init(sets, ways)
	b.Init(sets, ways)
	rng := rand.New(rand.NewSource(1))
	queries, victims := 0, 0
	all := ^uint64(0) >> (64 - ways)
	for i, addr := range stream {
		s, w := rng.Intn(sets), rng.Intn(ways)
		m := Meta{PC: uint64(rng.Intn(16)) * 4, Addr: addr, Pos: uint64(i)}
		switch rng.Intn(8) {
		case 0:
			a.OnHit(s, w, m)
			b.OnHit(s, w, m)
		case 1, 2:
			a.OnFill(s, w, m)
			b.OnFill(s, w, m)
		case 3:
			a.OnEvict(s, w)
			b.OnEvict(s, w)
		case 4:
			a.OnInvalidate(s, w)
			b.OnInvalidate(s, w)
		case 5:
			a.Promote(s, w)
			b.Promote(s, w)
		case 6:
			if got, want := a.Victim(s, all), b.Rank(s)[0]; got != want {
				t.Fatalf("%d ways, step %d: Victim(%d, %#x) = %d, Rank(%d)[0] = %d", ways, i, s, all, got, s, want)
			}
			victims++
		default:
			// Random masks, including bits above the associativity
			// (Rank never returns those ways), the empty mask and the
			// full one.
			mask := rng.Uint64()
			switch rng.Intn(4) {
			case 0:
				mask = 0
			case 1:
				mask = ^uint64(0)
			case 2:
				mask &= mask >> 7
			}
			got := a.Victim(s, mask)
			if want := firstRanked(b.Rank(s), mask); got != want {
				t.Fatalf("%d ways, step %d: Victim(%d, %#x) = %d, first Rank way in mask = %d", ways, i, s, mask, got, want)
			}
			queries++
		}
		if !reflect.DeepEqual(lockstepState(t, a), lockstepState(t, b)) {
			t.Fatalf("%d ways, step %d: the Victim and Rank instances diverged", ways, i)
		}
	}
	if queries == 0 || victims == 0 {
		t.Fatalf("%d ways: %d class-mask and %d whole-set Victim queries issued, want both", ways, queries, victims)
	}
}
