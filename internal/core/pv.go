// Package core implements the paper's primary contribution: the Zero
// Inclusion Victim (ZIV) last-level cache. It provides the banked shared LLC
// with pluggable replacement policies and all of the paper's victim-selection
// schemes — the inclusive/non-inclusive baselines, QBS, SHARP, CHARonBase,
// and the five ZIV relocation-property designs — plus the relocation
// machinery itself: per-bank property vectors with the Algorithm-1 nextRS
// logic, the relocation FIFO model, relocation-set victim policies, and
// re-relocation through directory-pointer tags (paper §III).
package core

import (
	"fmt"
	"math/bits"
)

// PV is a property vector (paper §III-D1, Fig. 6): one bit per LLC set in a
// bank, set when the LLC set satisfies the associated relocation property.
// A nextRS register provides round-robin selection among the sets whose bit
// is on, computed with the paper's Algorithm 1 (isolate the lowest set bit
// via x & (-x)), generalized word-wise to arbitrary vector lengths.
type PV struct {
	words []uint64
	sets  int
	ones  int // population count, maintains the emptyPV bit cheaply
	rs    int // current round-robin position (last relocation set used)
}

// NewPV returns a property vector over the given number of sets.
func NewPV(sets int) *PV {
	if sets <= 0 {
		panic(fmt.Sprintf("core: PV needs positive set count, got %d", sets))
	}
	return &PV{words: make([]uint64, (sets+63)/64), sets: sets}
}

// Get returns the property bit of set.
func (pv *PV) Get(set int) bool {
	return pv.words[set>>6]&(1<<(uint(set)&63)) != 0
}

// Set updates the property bit of set, maintaining the emptyPV state.
func (pv *PV) Set(set int, v bool) {
	w, b := set>>6, uint64(1)<<(uint(set)&63)
	old := pv.words[w]&b != 0
	if old == v {
		return
	}
	if v {
		pv.words[w] |= b
		pv.ones++
	} else {
		pv.words[w] &^= b
		pv.ones--
	}
}

// Empty reports the emptyPV bit: no set currently satisfies the property.
func (pv *PV) Empty() bool { return pv.ones == 0 }

// Ones returns the number of satisfying sets (diagnostics).
func (pv *PV) Ones() int { return pv.ones }

// NextRS returns the next satisfying set in round-robin order strictly after
// the previously returned one (wrapping), and advances the register. It
// returns -1 when the vector is empty. This is the software rendering of
// Algorithm 1: the upper portion of the PV (above the current RS) is
// searched for its lowest set bit with the two's-complement isolate trick,
// falling back to the lower portion on wrap-around.
func (pv *PV) NextRS() int {
	if pv.ones == 0 {
		return -1
	}
	n := pv.nextAfter(pv.rs)
	pv.rs = n
	return n
}

// Lowest returns the lowest-index satisfying set without touching the
// round-robin register (-1 when empty). It exists for the SelectLowest
// ablation of Algorithm 1's fairness rationale.
func (pv *PV) Lowest() int {
	if pv.ones == 0 {
		return -1
	}
	return pv.nextAfter(pv.sets - 1) // wraps: scans from position 0
}

// nextAfter finds the first set bit strictly after position pos, wrapping.
// The caller guarantees the vector is non-empty.
func (pv *PV) nextAfter(pos int) int {
	start := pos + 1
	if start >= pv.sets {
		start = 0
	}
	wi := start >> 6
	bi := uint(start) & 63
	// upperPV portion: mask off bits below start in its word, then scan up.
	if w := pv.words[wi] & (^uint64(0) << bi); w != 0 {
		return wi<<6 + bits.TrailingZeros64(w&(^w+1)) // w & (-w): Algorithm 1 line 4
	}
	for i := wi + 1; i < len(pv.words); i++ {
		if w := pv.words[i]; w != 0 {
			return i<<6 + bits.TrailingZeros64(w&(^w+1))
		}
	}
	// lowerPV portion (wrap): Algorithm 1 line 5.
	for i := 0; i <= wi; i++ {
		w := pv.words[i]
		if i == wi {
			w &= ^(^uint64(0) << bi)
		}
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w&(^w+1))
		}
	}
	panic("core: PV.nextAfter on empty vector")
}
