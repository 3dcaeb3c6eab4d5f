// Package apa covers allocpure's intra-package sites: literals,
// builtins, closures, interface boxing, local call summaries and the
// panic-path exemption.
package apa

import (
	"fmt"
	"io"
)

// Sum is allocation-free: index loop, scalar accumulation.
//
//ziv:noalloc
func Sum(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total += xs[i]
	}
	return total
}

// BadMake reaches for make on the steady-state path.
//
//ziv:noalloc
func BadMake(n int) []int {
	return make([]int, n) // want `make allocates in //ziv:noalloc function`
}

// BadNew heap-allocates explicitly.
//
//ziv:noalloc
func BadNew() *int {
	return new(int) // want `new allocates in //ziv:noalloc function`
}

// BadMapLit builds a map literal.
//
//ziv:noalloc
func BadMapLit() map[int]bool {
	return map[int]bool{1: true} // want `map literal allocates in //ziv:noalloc function`
}

// BadSliceLit builds a slice literal.
//
//ziv:noalloc
func BadSliceLit() []int {
	return []int{1, 2, 3} // want `slice literal allocates in //ziv:noalloc function`
}

type node struct{ v int }

// BadAddrLit takes the address of a composite literal.
//
//ziv:noalloc
func BadAddrLit(v int) *node {
	return &node{v: v} // want `composite literal escapes to the heap in //ziv:noalloc function`
}

// BadAppend may grow its argument.
//
//ziv:noalloc
func BadAppend(xs []int, v int) []int {
	return append(xs, v) // want `append may reallocate in //ziv:noalloc function`
}

// BadClosure returns a closure over a local.
//
//ziv:noalloc
func BadClosure(start int) func() int {
	n := start
	return func() int { // want `escaping closure allocates in //ziv:noalloc function`
		n++
		return n
	}
}

// OKClosures: immediately-invoked and locally-called-only closures stay
// on the stack.
//
//ziv:noalloc
func OKClosures(x int) int {
	y := func() int { return x * 2 }()
	double := func(v int) int { return v + v }
	return double(y)
}

// OKClosureArg passes literals to a locally-called-only closure: the
// callee never escapes, so its func-typed arguments stay on the stack
// too (the victim-scan firstWhere pattern, flattened by the inliner).
//
//ziv:noalloc
func OKClosureArg(xs []int, floor int) int {
	firstWhere := func(pred func(v int) bool) int {
		for i, v := range xs {
			if pred(v) {
				return i
			}
		}
		return -1
	}
	if i := firstWhere(func(v int) bool { return v > floor }); i >= 0 {
		return i
	}
	return firstWhere(func(v int) bool { return v == floor })
}

// BadRangeBody allocates inside a range body: the site must be reported
// exactly once even though the cfg keeps the whole RangeStmt in the
// header block alongside the body's own nodes.
//
//ziv:noalloc
func BadRangeBody(xs []int) []*node {
	var out []*node
	for _, v := range xs {
		out = append(out, &node{v: v}) // want `append may reallocate in //ziv:noalloc function` `composite literal escapes to the heap in //ziv:noalloc function`
	}
	return out
}

// BadBox boxes an integer into an interface.
//
//ziv:noalloc
func BadBox(v int) any {
	return v // want `interface conversion boxes int in //ziv:noalloc function`
}

// OKBox stores a pointer: pointer-shaped values need no boxing.
//
//ziv:noalloc
func OKBox(v *node) any {
	return v
}

// Guarded allocates only on the panic path: error construction on a
// failing invariant is exempt.
//
//ziv:noalloc
func Guarded(xs []int, i int) int {
	if i >= len(xs) {
		panic(fmt.Sprintf("index %d out of range %d", i, len(xs)))
	}
	return xs[i]
}

// Build is an exported helper with an allocation; its summary travels
// to other packages as a fact.
func Build(n int) []int {
	return make([]int, n)
}

// scratch is unexported and allocates; local summaries catch it.
func scratch() []int {
	return make([]int, 8)
}

// BadCall allocates transitively through a local helper.
//
//ziv:noalloc
func BadCall() []int {
	return scratch() // want `call to scratch allocates in //ziv:noalloc function`
}

// Waived keeps a cold-path allocation with an explicit waiver.
//
//ziv:noalloc
func Waived() []int {
	return make([]int, 4) //ziv:ignore(allocpure) cold path, runs once at startup // want:suppressed `make allocates`
}

// BadEscapingBody returns a non-capturing closure: no environment is
// allocated, but the body runs on the caller's hot path, so the make
// inside is attributed to this function.
//
//ziv:noalloc
func BadEscapingBody() func() []int {
	return func() []int {
		return make([]int, 8) // want `make allocates in //ziv:noalloc function`
	}
}

const escGuardLimit = 1 << 20

// OKEscapingGuard's returned closure allocates only on its panic path:
// the body scan rides the closure's own CFG, so the panic exemption
// holds inside escaping closures too.
//
//ziv:noalloc
func OKEscapingGuard() func(int) int {
	return func(v int) int {
		if v > escGuardLimit {
			panic(fmt.Sprintf("overflow %d", v))
		}
		return v * 2
	}
}

// Ranker is a plain interface: dynamic calls join the verdicts of
// every known implementation.
type Ranker interface {
	Rank(xs []int) int
}

// CleanRank ranks without allocating.
type CleanRank struct{}

func (CleanRank) Rank(xs []int) int { return len(xs) }

// DirtyRank scratches a copy first.
type DirtyRank struct{}

func (DirtyRank) Rank(xs []int) int {
	b := make([]int, len(xs))
	copy(b, xs)
	return len(b)
}

// BadDynamic dispatches through Ranker: DirtyRank is a possible callee
// and it allocates, so the dynamic call is charged.
//
//ziv:noalloc
func BadDynamic(r Ranker, xs []int) int {
	return r.Rank(xs) // want `dynamic call to Rank may allocate in //ziv:noalloc function \(\(zivsim/internal/apa\.DirtyRank\)\.Rank allocates\)`
}

// Sizer's only implementation is clean, so dispatching through it is
// clean too — a blanket "dynamic calls may allocate" rule would have
// flagged this.
type Sizer interface {
	Size() int
}

func (CleanRank) Size() int { return 0 }

// OKDynamic joins a verdict set that is all clean.
//
//ziv:noalloc
func OKDynamic(s Sizer) int {
	return s.Size()
}

// Scorer annotates its method //ziv:noalloc: call sites trust the
// contract and every implementation is held to it at its declaration.
type Scorer interface {
	//ziv:noalloc
	Score(x int) int
}

// OKAnnotatedDynamic dispatches through the annotated method: clean at
// the call site even though BadScore allocates.
//
//ziv:noalloc
func OKAnnotatedDynamic(s Scorer, x int) int {
	return s.Score(x)
}

// GoodScore honors the contract.
type GoodScore struct{ base int }

func (g GoodScore) Score(x int) int { return g.base + x }

// BadScore breaks the contract: reported at the declaration, not at
// the dynamic call sites.
type BadScore struct{}

func (BadScore) Score(x int) int { // want `Score allocates but implements //ziv:noalloc interface method Scorer\.Score`
	return len(make([]int, x))
}

// Opaque has no in-module implementation: a verdict joined over zero
// implementations is vacuous, so the dynamic call is surfaced instead
// of silently trusted.
type Opaque interface {
	Touch(x int) int
}

// BadVacuousDynamic dispatches through Opaque with nothing to join.
//
//ziv:noalloc
func BadVacuousDynamic(o Opaque, x int) int {
	return o.Touch(x) // want `dynamic call to Touch joins zero in-module implementations in //ziv:noalloc function`
}

// Sealed also has no implementation yet, but its method carries the
// contract: each future implementation answers for itself at its own
// declaration, so trusting the call site is sound.
type Sealed interface {
	//ziv:noalloc
	Probe(x int) int
}

// OKVacuousAnnotated dispatches through the annotated method: clean.
//
//ziv:noalloc
func OKVacuousAnnotated(s Sealed, x int) int {
	return s.Probe(x)
}

// OKStdlibIface dispatches through an interface defined in a package
// with no alloc summaries in view (the standard library): the empty
// join means the implementations are invisible, not absent, so the
// call is trusted rather than reported as vacuous.
//
//ziv:noalloc
func OKStdlibIface(r io.Reader, buf []byte) int {
	n, _ := r.Read(buf)
	return n
}

// GuardedBothArms builds its message in a block whose two successors
// both panic. Only a block that itself ends in a panic is exempt, so the
// Sprintf is reported even though every path from it panics.
//
//ziv:noalloc
func GuardedBothArms(bad bool, v int) int {
	if v < 0 {
		msg := fmt.Sprintf("negative %d", v) // want `call to Sprintf allocates` `interface conversion boxes int`
		if bad {
			panic(msg)
		}
		panic(msg)
	}
	return v
}
