package dataflow

import "maps"

// MustSet is a must-analysis fact: the keys that hold on every path.
// The value of a key is a flag that survives a join only when it holds
// on every path (lockguard: the lock is held exclusively); sets that
// track only presence store true.
type MustSet[K comparable] struct {
	// Top marks the universe, the fact of unexplored and panicking
	// paths, which constrain nothing.
	Top bool
	// M holds the keys and their flags when Top is unset.
	M map[K]bool
}

// With returns a copy of s's keys and values plus add, each true. The
// copy is never Top: adding to an unexplored fact starts from empty.
func (s MustSet[K]) With(add ...K) MustSet[K] {
	m := make(map[K]bool, len(s.M)+len(add))
	for k, v := range s.M {
		m[k] = v
	}
	for _, k := range add {
		m[k] = true
	}
	return MustSet[K]{M: m}
}

// MustLattice is the intersection semilattice over MustSets.
type MustLattice[K comparable] struct{}

// Bottom returns Top, the identity of Join.
func (MustLattice[K]) Bottom() MustSet[K] { return MustSet[K]{Top: true} }

// Join intersects two sets, ANDing the flags of the keys both hold.
func (MustLattice[K]) Join(x, y MustSet[K]) MustSet[K] {
	if x.Top {
		return y
	}
	if y.Top {
		return x
	}
	m := map[K]bool{}
	for k, xv := range x.M {
		if yv, ok := y.M[k]; ok {
			m[k] = xv && yv
		}
	}
	return MustSet[K]{M: m}
}

// Equal reports whether both sets are Top, or hold the same keys with
// the same flags.
func (MustLattice[K]) Equal(x, y MustSet[K]) bool {
	return x.Top == y.Top && maps.Equal(x.M, y.M)
}

// MaySet is a may-analysis fact: the keys that hold on some path.
type MaySet[K comparable] map[K]bool

// MayLattice is the union semilattice over MaySets.
type MayLattice[K comparable] struct{}

// Bottom returns the empty set, the identity of Join.
func (MayLattice[K]) Bottom() MaySet[K] { return MaySet[K]{} }

// Join unions two sets, ORing the flags of the keys both hold.
func (MayLattice[K]) Join(x, y MaySet[K]) MaySet[K] {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	m := maps.Clone(x)
	for k, v := range y {
		m[k] = m[k] || v
	}
	return m
}

// Equal reports whether both sets hold the same keys with the same
// flags.
func (MayLattice[K]) Equal(x, y MaySet[K]) bool { return maps.Equal(x, y) }
