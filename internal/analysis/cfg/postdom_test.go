package cfg

// PostDom is the computed postdominance relation of a Graph: the
// reference the CFG-shape tests state their assertions against.
//
// Block A postdominates block B when every path from B to the virtual
// exit passes through A. The computation is the classic iterative
// dataflow over the reverse graph with bitset intersection:
//
//	pdom(exit) = {exit}
//	pdom(b)    = {b} ∪ ⋂ { pdom(s) : s ∈ succ(b) }
//
// Blocks with no successors other than the exit (panic endings) leave
// the intersection over an empty set, which is the full universe — so
// paths that end in a panic never constrain postdominance, the same
// vacuity the backward must-analyses give panic paths.
type PostDom struct {
	sets []bitset // sets[i] = postdominators of block i
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// intersectWith performs b &= o and reports whether b changed.
func (b bitset) intersectWith(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

func (b bitset) copyFrom(o bitset) {
	copy(b, o)
}

// PostDominators computes the relation for the graph.
func (g *Graph) PostDominators() *PostDom {
	n := len(g.Blocks)
	p := &PostDom{sets: make([]bitset, n)}
	for i := range p.sets {
		p.sets[i] = newBitset(n)
		if i == g.Exit.Index {
			p.sets[i].set(i)
		} else {
			p.sets[i].fill()
		}
	}
	// Iterate to fixpoint. Visiting blocks in reverse index order
	// approximates reverse-graph RPO well enough; graphs here are tiny
	// (one function) so convergence cost is irrelevant.
	tmp := newBitset(n)
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			blk := g.Blocks[i]
			if blk == g.Exit {
				continue
			}
			if len(blk.Succs) == 0 {
				continue // panic ending: stays at the full universe
			}
			tmp.copyFrom(p.sets[blk.Succs[0].Index])
			for _, s := range blk.Succs[1:] {
				tmp.intersectWith(p.sets[s.Index])
			}
			tmp.set(i)
			if p.sets[i].intersectWith(tmp) {
				changed = true
			}
		}
	}
	return p
}

// PostDominates reports whether a postdominates b (reflexively: every
// block postdominates itself).
func (p *PostDom) PostDominates(a, b *Block) bool {
	return p.sets[b.Index].has(a.Index)
}
