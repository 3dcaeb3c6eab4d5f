package dataflow

import (
	"go/ast"
	"go/types"
	"testing"

	"zivsim/internal/analysis/cfg"
)

// livenessTransfer is a textbook live-variables transfer: walk the
// block's nodes last-to-first, kill assigned variables, gen used ones.
// "Live" is encoded as the Value bit of the shared Taint domain.
func livenessTransfer(info *types.Info) func(b *cfg.Block, out Taint) Taint {
	varOf := func(id *ast.Ident) *types.Var {
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := info.Uses[id].(*types.Var)
		return v
	}
	gen := func(env Taint, e ast.Expr) Taint {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, used := info.Uses[id].(*types.Var); used {
					if env == nil {
						env = Taint{}
					}
					env[TaintKey{Var: v}] = Value
				}
			}
			return true
		})
		return env
	}
	return func(b *cfg.Block, out Taint) Taint {
		env := out.Clone()
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			switch n := b.Nodes[i].(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if v := varOf(id); v != nil {
							delete(env, TaintKey{Var: v})
						}
					}
				}
				for _, rhs := range n.Rhs {
					env = gen(env, rhs)
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					env = gen(env, r)
				}
			case *ast.ExprStmt:
				env = gen(env, n.X)
			case ast.Expr:
				env = gen(env, n)
			}
		}
		return env
	}
}

const liveSrc = `package p

func src() int { return 0 }
func use(int)  {}

func branchL(c bool) {
	x := src()
	y := src()
	if c {
		use(x)
	} else {
		use(y)
	}
}

func deadAfterPanic(c bool) {
	x := src()
	if c {
		panic("boom")
	}
	use(x)
}
`

func runLiveness(t *testing.T, fn string) (*cfg.Graph, *ast.FuncDecl, *types.Info, []Taint, []Taint) {
	t.Helper()
	g, fd, info := buildFunc(t, liveSrc, fn)
	ins, outs := Backward[Taint](g, TaintLattice{}, nil, livenessTransfer(info))
	return g, fd, info, ins, outs
}

func TestBackwardLivenessJoinsBranches(t *testing.T) {
	g, fd, info, _, outs := runLiveness(t, "branchL")
	x := lookupVar(t, info, fd, "x")
	y := lookupVar(t, info, fd, "y")
	entryOut := outs[g.Entry.Index]
	if entryOut[TaintKey{Var: x}] != Value || entryOut[TaintKey{Var: y}] != Value {
		t.Errorf("branchL: entry out = %v, want both x and y live (union over branches)", entryOut)
	}
}

func TestBackwardPanicBlockStaysBottom(t *testing.T) {
	g, fd, info, ins, outs := runLiveness(t, "deadAfterPanic")
	x := lookupVar(t, info, fd, "x")
	if outs[g.Entry.Index][TaintKey{Var: x}] != Value {
		t.Errorf("deadAfterPanic: x not live at entry out despite use on fallthrough path")
	}
	var panicBlk *cfg.Block
	for _, b := range g.Blocks {
		if b != g.Exit && len(b.Succs) == 0 && len(b.Nodes) > 0 {
			panicBlk = b
		}
	}
	if panicBlk == nil {
		t.Fatal("no panic block found")
	}
	if len(ins[panicBlk.Index]) != 0 || len(outs[panicBlk.Index]) != 0 {
		t.Errorf("panic block facts not Bottom: in=%v out=%v",
			ins[panicBlk.Index], outs[panicBlk.Index])
	}
}

// mustAssignTransfer adds every assigned identifier name to the fact
// ("on every path from here, these names get written"). Top is the
// universe, so unexplored and panicking paths constrain nothing — the
// same vacuity postdominance gives panic paths.
func mustAssignTransfer(b *cfg.Block, out MustSet[string]) MustSet[string] {
	if out.Top {
		return out // everything is already in the set
	}
	var names []string
	for _, n := range b.Nodes {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				names = append(names, id.Name)
			}
		}
	}
	return out.With(names...)
}

const mustSrc = `package p

func mustBoth(c bool) {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	_ = x
}

func mustOne(c bool) {
	y := 0
	if c {
		y = 1
	}
	_ = y
}

func mustGuard(c bool) {
	z := 0
	if c {
		panic("no")
	}
	z = 1
	_ = z
}
`

func mustOutAtEntry(t *testing.T, fn string) MustSet[string] {
	t.Helper()
	g, _, _ := buildFunc(t, mustSrc, fn)
	_, outs := Backward[MustSet[string]](g, MustLattice[string]{}, MustSet[string]{M: map[string]bool{}}, mustAssignTransfer)
	return outs[g.Entry.Index]
}

func TestBackwardMustIntersectsBranches(t *testing.T) {
	if out := mustOutAtEntry(t, "mustBoth"); out.Top || !out.M["x"] {
		t.Errorf("mustBoth: x assigned on both branches, want in must-set; got %v", out)
	}
	if out := mustOutAtEntry(t, "mustOne"); out.Top || out.M["y"] {
		t.Errorf("mustOne: y assigned on one branch only, must not be in must-set; got %v", out)
	}
}

func TestBackwardMustPanicVacuity(t *testing.T) {
	// The panic arm's fact stays Bottom (= universe), so the
	// intersection at the guard is decided by the surviving path alone:
	// z is still must-assigned even though the panic arm never writes it.
	if out := mustOutAtEntry(t, "mustGuard"); out.Top || !out.M["z"] {
		t.Errorf("mustGuard: z must-assigned on the non-panicking path, want in must-set; got %v", out)
	}
}
