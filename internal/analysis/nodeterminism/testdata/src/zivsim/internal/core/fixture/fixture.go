// Package fixture exercises the nodeterminism analyzer inside a
// simulation package (its import path sits under internal/core).
package fixture

import (
	"math/rand"
	"sort"
	"time"
)

// BadRange iterates a map directly: run-to-run order drift.
func BadRange(m map[uint64]int) int {
	total := 0
	for k, v := range m { // want `map iteration order is nondeterministic`
		total += int(k) + v
	}
	return total
}

// GoodRange uses the accepted collect-then-sort idiom.
func GoodRange(m map[uint64]int) int {
	var keys []uint64
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	total := 0
	for _, k := range keys {
		total += int(k) + m[k]
	}
	return total
}

// WaivedRange carries an explicit ignore directive: order provably does
// not matter for a commutative sum, and the author said so.
func WaivedRange(m map[uint64]int) int {
	total := 0
	//ziv:ignore(nodeterminism) commutative sum, order-independent
	for _, v := range m { // want:suppressed `map iteration order`
		total += v
	}
	return total
}

// BadClock reads the wall clock from simulation code.
func BadClock() int64 {
	return time.Now().UnixNano() // want `time\.Now in simulation code breaks reproducibility`
}

// BadGlobalRand draws from the process-global source.
func BadGlobalRand() int {
	return rand.Intn(10) // want `global math/rand\.Intn uses the process-wide source`
}

// GoodSeededRand constructs an explicit source from a caller seed.
func GoodSeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}
