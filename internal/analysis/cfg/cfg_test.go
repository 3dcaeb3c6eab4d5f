package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildFunc parses src (a file containing one function f) and returns
// the CFG of f's body plus the AST for node lookups.
func buildFunc(t *testing.T, src string) (*Graph, *ast.FuncDecl, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return New(fd.Body), fd, fset
		}
	}
	t.Fatal("no function f in source")
	return nil, nil, nil
}

// nodeBlock finds the block holding the statement whose source line is
// line.
func nodeBlock(t *testing.T, g *Graph, fset *token.FileSet, line int) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if fset.Position(n.Pos()).Line == line {
				return b
			}
		}
	}
	t.Fatalf("no node on line %d", line)
	return nil
}

func TestStraightLineSingleBlock(t *testing.T) {
	g, _, _ := buildFunc(t, `package p
func f() {
	x := 1
	y := x + 1
	_ = y
}`)
	if len(g.Entry.Nodes) != 3 {
		t.Errorf("entry block has %d nodes, want 3", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Errorf("entry should flow straight to exit")
	}
}

func TestIfJoinPostdominates(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	x++
	return x
}`)
	pd := g.PostDominators()
	condBlk := nodeBlock(t, g, fset, 3) // x := 0 and the condition
	thenBlk := nodeBlock(t, g, fset, 5) // x = 1
	joinBlk := nodeBlock(t, g, fset, 9) // x++
	if !pd.PostDominates(joinBlk, condBlk) {
		t.Error("join must postdominate the condition block")
	}
	if !pd.PostDominates(joinBlk, thenBlk) {
		t.Error("join must postdominate the then branch")
	}
	if pd.PostDominates(thenBlk, condBlk) {
		t.Error("a conditional branch must not postdominate the condition")
	}
}

func TestPanicPathDoesNotBreakPostdominance(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(c bool) int {
	x := 0
	if c {
		panic("bad")
	}
	x++
	return x
}`)
	pd := g.PostDominators()
	first := nodeBlock(t, g, fset, 3)
	tail := nodeBlock(t, g, fset, 7)
	if !pd.PostDominates(tail, first) {
		t.Error("x++ must postdominate the entry despite the panic branch")
	}
	panicBlk := nodeBlock(t, g, fset, 5)
	if len(panicBlk.Succs) != 0 {
		t.Errorf("panic block has %d successors, want 0", len(panicBlk.Succs))
	}
	_ = fset
}

func TestEarlyReturnBreaksPostdominance(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(c bool) int {
	x := 0
	if c {
		return -1
	}
	x++
	return x
}`)
	pd := g.PostDominators()
	first := nodeBlock(t, g, fset, 3)
	tail := nodeBlock(t, g, fset, 7)
	if pd.PostDominates(tail, first) {
		t.Error("x++ must NOT postdominate the entry: the early return bypasses it")
	}
	_ = fset
}

func TestForLoopBodyAndAfter(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`)
	pd := g.PostDominators()
	entry := nodeBlock(t, g, fset, 3)
	body := nodeBlock(t, g, fset, 5)
	ret := nodeBlock(t, g, fset, 7)
	if !pd.PostDominates(ret, entry) {
		t.Error("return must postdominate the entry")
	}
	if pd.PostDominates(body, entry) {
		t.Error("loop body must not postdominate the entry (zero-iteration path)")
	}
	if !pd.PostDominates(ret, body) {
		t.Error("return must postdominate the loop body")
	}
}

func TestRangeLoopWithBreak(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		if x < 0 {
			break
		}
		s += x
	}
	return s
}`)
	pd := g.PostDominators()
	sum := nodeBlock(t, g, fset, 8)
	ret := nodeBlock(t, g, fset, 10)
	if !pd.PostDominates(ret, sum) {
		t.Error("return must postdominate the loop body tail")
	}
	if pd.PostDominates(sum, nodeBlock(t, g, fset, 5)) {
		t.Error("s += x must not postdominate the break condition")
	}
	_ = fset
}

func TestSwitchAllPathsJoin(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(n int) int {
	r := 0
	switch n {
	case 1:
		r = 10
	case 2:
		r = 20
	default:
		r = 30
	}
	return r
}`)
	pd := g.PostDominators()
	tag := nodeBlock(t, g, fset, 4)
	caseOne := nodeBlock(t, g, fset, 6)
	ret := nodeBlock(t, g, fset, 12)
	if !pd.PostDominates(ret, tag) {
		t.Error("return must postdominate the switch tag")
	}
	if !pd.PostDominates(ret, caseOne) {
		t.Error("return must postdominate a case body")
	}
	if pd.PostDominates(caseOne, tag) {
		t.Error("one case must not postdominate the tag")
	}
	_ = fset
}

func TestSwitchWithoutDefaultHasFallthroughEdge(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(n int) int {
	r := 0
	switch n {
	case 1:
		r = 10
	}
	return r
}`)
	pd := g.PostDominators()
	caseOne := nodeBlock(t, g, fset, 6)
	ret := nodeBlock(t, g, fset, 8)
	if pd.PostDominates(caseOne, nodeBlock(t, g, fset, 4)) {
		t.Error("the only case must not postdominate the tag when no default exists")
	}
	if !pd.PostDominates(ret, nodeBlock(t, g, fset, 4)) {
		t.Error("return must postdominate the tag")
	}
	_ = fset
}

func TestLabeledContinueTargetsOuterLoop(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(m, n int) int {
	s := 0
outer:
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if j == 3 {
				continue outer
			}
			s++
		}
		s += 100
	}
	return s
}`)
	pd := g.PostDominators()
	ret := nodeBlock(t, g, fset, 14)
	inc := nodeBlock(t, g, fset, 10)
	if !pd.PostDominates(ret, inc) {
		t.Error("return must postdominate the inner loop body")
	}
	tail := nodeBlock(t, g, fset, 12) // s += 100
	if pd.PostDominates(tail, nodeBlock(t, g, fset, 7)) {
		t.Error("the outer-loop tail must not postdominate the continue condition")
	}
	_ = fset
}

func TestTerminatingCalls(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
import "os"
func f(c bool) int {
	if c {
		os.Exit(2)
	}
	return 1
}`)
	exitBlk := nodeBlock(t, g, fset, 5)
	if len(exitBlk.Succs) != 0 {
		t.Errorf("os.Exit block has %d successors, want 0", len(exitBlk.Succs))
	}
	_ = fset
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Error("nil body must wire entry straight to exit")
	}
}

func TestGotoForward(t *testing.T) {
	g, _, fset := buildFunc(t, `package p
func f(c bool) int {
	x := 0
	if c {
		goto done
	}
	x = 5
done:
	return x
}`)
	pd := g.PostDominators()
	ret := nodeBlock(t, g, fset, 9)
	if !pd.PostDominates(ret, nodeBlock(t, g, fset, 3)) {
		t.Error("labeled return must postdominate the entry")
	}
	if pd.PostDominates(nodeBlock(t, g, fset, 7), nodeBlock(t, g, fset, 3)) {
		t.Error("x = 5 must not postdominate the entry (goto skips it)")
	}
	_ = fset
}
