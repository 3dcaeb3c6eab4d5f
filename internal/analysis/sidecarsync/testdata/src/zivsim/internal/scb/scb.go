// Package scb models the LLC bank of zivsim/internal/core: a block array
// whose tag sidecar and way masks must follow every whole-block write,
// every write to a block's identity (Valid, Relocated, Addr) and every
// write to its private-residency bit (NotInPrC).
package scb

// Block mirrors core.Block's fields.
type Block struct {
	Valid     bool
	Dirty     bool
	Relocated bool
	NotInPrC  bool
	Addr      uint64
}

type bank struct {
	//ziv:mirror(tags,masks)
	//ziv:mirror(masks,updateSet) on NotInPrC
	//ziv:mirror(tags,masks) on Valid,Relocated,Addr
	blocks []Block
	tags   []uint64
	masks  []uint64
}

// LLC owns the banks. Its exported methods are API boundaries, so each
// must refresh the sidecars of every block write it makes.
type LLC struct {
	banks []bank
}

func (l *LLC) updateSet(b, i int) {}

// Fill installs a whole block and refreshes tags and masks: clean.
func (l *LLC) Fill(b, i int, addr uint64) {
	bk := &l.banks[b]
	bk.blocks[i] = Block{Valid: true, Addr: addr}
	bk.tags[i] = addr
	bk.masks[i/64] |= 1 << (i % 64)
}

// MarkDirty writes a field no mirror tracks: clean.
func (l *LLC) MarkDirty(b, i int) {
	l.banks[b].blocks[i].Dirty = true
}

// Invalidate clears Valid and leaves the tag and the valid mask behind.
func (l *LLC) Invalidate(b, i int) {
	l.banks[b].blocks[i].Valid = false // want `write to blocks\.Valid leaves sidecar tags, masks stale`
}

// Relocate flags the block as relocated; the tag sidecar still probes it.
func (l *LLC) Relocate(b, i int) {
	l.banks[b].blocks[i].Relocated = true // want `write to blocks\.Relocated leaves sidecar tags, masks stale`
}

// Retag rewrites the block address under the tag sidecar.
func (l *LLC) Retag(b, i int, addr uint64) {
	l.banks[b].blocks[i].Addr = addr // want `write to blocks\.Addr leaves sidecar tags, masks stale`
}

// MarkNotInPrC sets the residency bit without the mask or the property
// vectors catching up.
func (l *LLC) MarkNotInPrC(b, i int) {
	l.banks[b].blocks[i].NotInPrC = true // want `write to blocks\.NotInPrC leaves sidecar masks, updateSet stale`
}
