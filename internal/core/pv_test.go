package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPVBasics(t *testing.T) {
	pv := NewPV(100)
	if !pv.Empty() {
		t.Fatal("new PV not empty")
	}
	if pv.NextRS() != -1 {
		t.Fatal("empty PV should return -1")
	}
	pv.Set(5, true)
	pv.Set(70, true)
	if pv.Empty() || pv.Ones() != 2 {
		t.Fatalf("Ones = %d", pv.Ones())
	}
	if !pv.Get(5) || !pv.Get(70) || pv.Get(6) {
		t.Fatal("Get mismatch")
	}
	pv.Set(5, true) // idempotent
	if pv.Ones() != 2 {
		t.Fatal("double Set changed count")
	}
	pv.Set(5, false)
	pv.Set(5, false)
	if pv.Ones() != 1 {
		t.Fatal("double Clear changed count")
	}
}

func TestPVRoundRobin(t *testing.T) {
	pv := NewPV(128)
	for _, s := range []int{3, 64, 100} {
		pv.Set(s, true)
	}
	// Starting rs=0: strictly-after order is 3, 64, 100, then wraps to 3.
	want := []int{3, 64, 100, 3, 64, 100}
	for i, w := range want {
		if got := pv.NextRS(); got != w {
			t.Fatalf("NextRS #%d = %d, want %d", i, got, w)
		}
	}
}

func TestPVSingleBitWraps(t *testing.T) {
	pv := NewPV(64)
	pv.Set(0, true)
	for i := 0; i < 3; i++ {
		if got := pv.NextRS(); got != 0 {
			t.Fatalf("NextRS = %d, want 0", got)
		}
	}
}

func TestPVWordBoundaries(t *testing.T) {
	pv := NewPV(192)
	for _, s := range []int{63, 64, 127, 128, 191} {
		pv.Set(s, true)
	}
	got := []int{}
	for i := 0; i < 5; i++ {
		got = append(got, pv.NextRS())
	}
	want := []int{63, 64, 127, 128, 191}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
	if pv.NextRS() != 63 {
		t.Fatal("wrap after last word failed")
	}
}

// naiveNext is the reference model for Algorithm 1: scan positions after rs,
// wrapping, for the first set bit.
func naiveNext(bitsSet map[int]bool, sets, rs int) int {
	for i := 1; i <= sets; i++ {
		p := (rs + i) % sets
		if bitsSet[p] {
			return p
		}
	}
	return -1
}

// Property: the word-wise Algorithm 1 implementation matches a naive scan
// for arbitrary bit patterns and starting positions.
func TestPVNextMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64, setsRaw uint16) bool {
		sets := int(setsRaw%300) + 1
		rng := rand.New(rand.NewSource(seed))
		pv := NewPV(sets)
		model := map[int]bool{}
		for i := 0; i < sets/2+1; i++ {
			s := rng.Intn(sets)
			v := rng.Intn(3) > 0
			pv.Set(s, v)
			model[s] = v
		}
		for step := 0; step < 20; step++ {
			want := naiveNext(model, sets, pv.rs)
			got := pv.NextRS()
			if got != want {
				return false
			}
			if got == -1 {
				break
			}
			// Occasionally mutate between steps.
			if rng.Intn(2) == 0 {
				s := rng.Intn(sets)
				v := rng.Intn(2) == 0
				pv.Set(s, v)
				model[s] = v
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: round-robin selection distributes picks uniformly across
// satisfying sets (fairness within a factor of 2 over many rounds).
func TestPVFairnessProperty(t *testing.T) {
	pv := NewPV(256)
	members := []int{7, 50, 99, 130, 200, 255}
	for _, s := range members {
		pv.Set(s, true)
	}
	counts := map[int]int{}
	for i := 0; i < 6*100; i++ {
		counts[pv.NextRS()]++
	}
	for _, s := range members {
		if counts[s] != 100 {
			t.Errorf("set %d picked %d times, want exactly 100", s, counts[s])
		}
	}
}

func TestPVPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPV(0) did not panic")
		}
	}()
	NewPV(0)
}
