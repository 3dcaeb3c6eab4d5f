package dataflow

import "testing"

func TestSetLatticeLaws(t *testing.T) {
	type must = MustSet[string]
	type may = MaySet[string]
	mustL, mayL := MustLattice[string]{}, MayLattice[string]{}
	top := mustL.Bottom()
	x := must{M: map[string]bool{"a": true, "b": true, "c": false}}
	y := must{M: map[string]bool{"b": false, "c": false, "d": true}}
	p := may{"a": true, "b": false}
	q := may{"b": true, "c": false}

	for _, c := range []struct {
		name      string
		got, want bool
	}{
		{"must: Top is the left identity of Join", mustL.Equal(mustL.Join(top, x), x), true},
		{"must: Top is the right identity of Join", mustL.Equal(mustL.Join(x, top), x), true},
		{"must: Join intersects keys and ANDs values",
			mustL.Equal(mustL.Join(x, y), must{M: map[string]bool{"b": false, "c": false}}), true},
		{"must: Top differs from the empty set", mustL.Equal(top, must{M: map[string]bool{}}), false},
		{"must: Equal compares values",
			mustL.Equal(must{M: map[string]bool{"a": true}}, must{M: map[string]bool{"a": false}}), false},
		{"must: With adds true keys and is never Top",
			mustL.Equal(top.With("e"), must{M: map[string]bool{"e": true}}), true},
		{"may: the empty Bottom is the identity of Join", mayL.Equal(mayL.Join(mayL.Bottom(), p), p), true},
		{"may: Join unions keys and ORs values",
			mayL.Equal(mayL.Join(p, q), may{"a": true, "b": true, "c": false}), true},
		{"may: Equal compares values", mayL.Equal(may{"a": true}, may{"a": false}), false},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}

	// Join and With must not mutate their arguments: the solvers keep
	// every block's fact and compare it with the next one.
	x.With("z")
	if !mustL.Equal(x, must{M: map[string]bool{"a": true, "b": true, "c": false}}) ||
		!mustL.Equal(y, must{M: map[string]bool{"b": false, "c": false, "d": true}}) ||
		!mayL.Equal(p, may{"a": true, "b": false}) || !mayL.Equal(q, may{"b": true, "c": false}) {
		t.Errorf("Join or With mutated an argument: x=%v y=%v p=%v q=%v", x, y, p, q)
	}
}
