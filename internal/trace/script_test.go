package trace

import "testing"

// Script replays a fixed reference sequence, wrapping at the end: the
// generator the tests build precise scenarios from.
type Script struct {
	refs []Ref
	pos  int
}

// NewScript returns a generator replaying refs cyclically. The slice is not
// copied; callers must not mutate it afterwards.
func NewScript(refs []Ref) *Script {
	if len(refs) == 0 {
		panic("trace: NewScript needs at least one reference")
	}
	return &Script{refs: refs}
}

// Next implements Generator.
func (g *Script) Next() Ref {
	r := g.refs[g.pos]
	g.pos++
	if g.pos == len(g.refs) {
		g.pos = 0
	}
	return r
}

// Reset implements Generator.
func (g *Script) Reset() { g.pos = 0 }

func TestScriptGenerator(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	g := NewScript(refs)
	for round := 0; round < 2; round++ {
		for i, want := range refs {
			if got := g.Next(); got != want {
				t.Fatalf("round %d ref %d = %+v, want %+v", round, i, got, want)
			}
		}
	}
	g.Next()
	g.Reset()
	if g.Next().Addr != 1 {
		t.Fatal("Script Reset failed")
	}
}

func TestScriptEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewScript(nil) did not panic")
		}
	}()
	NewScript(nil)
}
