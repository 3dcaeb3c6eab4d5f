// Package dataflow provides a small forward dataflow engine over the CFGs
// built by zivsim/internal/analysis/cfg, plus the fact domains the
// analyzers share: the taint domain of the interprocedural analyzers
// (detflow in particular) and the must- and may-set lattices of the
// held-lock, join-signal, sidecar-mention and closed-channel analyses.
//
// The solver is the textbook worklist algorithm: each basic block has an
// input fact joined from its predecessors' outputs, a transfer function
// maps input to output, and blocks requeue until a fixpoint. Lattices
// here are finite-height (bitmasks and small maps over the variables
// and names of one function), so termination is immediate from
// monotone transfer functions.
package dataflow

import (
	"zivsim/internal/analysis/cfg"
)

// Lattice describes the fact domain for a forward analysis.
type Lattice[F any] interface {
	// Bottom returns the initial fact for every block except the entry.
	Bottom() F
	// Join merges two facts (least upper bound). It must not mutate its
	// arguments.
	Join(a, b F) F
	// Equal reports whether two facts are indistinguishable; the solver
	// stops requeuing successors when a block's output stops changing.
	Equal(a, b F) bool
}

// Forward runs a forward worklist analysis over g and returns the input
// fact of every block (indexed by block index). entry is the fact at the
// function entry; transfer maps a block and its input fact to its output
// fact and must be monotone and must not mutate in.
func Forward[F any](g *cfg.Graph, lat Lattice[F], entry F, transfer func(b *cfg.Block, in F) F) []F {
	n := len(g.Blocks)
	ins := make([]F, n)
	outs := make([]F, n)
	for i := range ins {
		ins[i] = lat.Bottom()
		outs[i] = lat.Bottom()
	}
	ins[g.Entry.Index] = entry

	// Seed with every block in index order (blocks are created roughly in
	// source order, so this converges quickly for reducible flow graphs).
	inQueue := make([]bool, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		queue = append(queue, i)
		inQueue[i] = true
	}
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		inQueue[idx] = false
		b := g.Blocks[idx]

		in := ins[idx]
		if b != g.Entry {
			in = lat.Bottom()
		}
		for _, p := range b.Preds {
			in = lat.Join(in, outs[p.Index])
		}
		ins[idx] = in
		out := transfer(b, in)
		// Every block was seeded once, so skipping an unchanged output
		// only prunes redundant requeues — each transfer still runs at
		// least one time.
		if lat.Equal(out, outs[idx]) {
			continue
		}
		outs[idx] = out
		for _, s := range b.Succs {
			if !inQueue[s.Index] {
				queue = append(queue, s.Index)
				inQueue[s.Index] = true
			}
		}
	}
	return ins
}
