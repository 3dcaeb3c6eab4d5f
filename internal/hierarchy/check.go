package hierarchy

import (
	"fmt"

	"zivsim/internal/cache"
	"zivsim/internal/directory"
)

// CheckInclusion validates the machine-level invariants (tests and
// DebugChecks runs):
//
//  1. Directory precision: a block is tracked with core i as a sharer iff
//     core i's private hierarchy holds it.
//  2. Inclusion (inclusive mode): every privately cached block has an LLC
//     copy — in its home set, or at its directory-recorded relocated
//     location.
//  3. MESI single-writer: a dirty or writable private copy exists only when
//     the directory entry has exactly one sharer.
func (m *Machine) CheckInclusion() error {
	// Forward: private contents are tracked (and included).
	for i := range m.cores {
		c := &m.cores[i]
		var err error
		visit := func(b cache.Block) {
			if err != nil {
				return
			}
			e, _, ok := m.dir.Find(b.Addr)
			if !ok {
				err = fmt.Errorf("core %d holds untracked block %#x", i, b.Addr)
				return
			}
			if !e.Sharers.Has(i) {
				err = fmt.Errorf("core %d holds block %#x but is not a sharer", i, b.Addr)
				return
			}
			if (b.Dirty || b.Writable) && e.Sharers.Count() != 1 {
				err = fmt.Errorf("core %d has writable/dirty copy of shared block %#x", i, b.Addr)
				return
			}
			if m.cfg.Mode == Inclusive {
				if e.Relocated {
					lb := m.llc.BlockAt(e.Loc)
					if !lb.Valid || !lb.Relocated || lb.Addr != b.Addr {
						err = fmt.Errorf("relocated LLC copy of %#x missing at %+v", b.Addr, e.Loc)
					}
				} else if _, hit := m.llc.Probe(b.Addr); !hit {
					err = fmt.Errorf("inclusion violated: block %#x in core %d but not in LLC", b.Addr, i)
				}
			}
		}
		c.l1.ForEachValid(visit)
		c.l2.ForEachValid(visit)
		if err != nil {
			return err
		}
	}
	// Reverse: every tracked sharer actually holds the block.
	var err error
	m.dir.ForEach(func(e *directory.Entry, _ directory.Ptr) {
		if err != nil {
			return
		}
		if e.Sharers.Count() == 0 {
			err = fmt.Errorf("directory entry %#x with no sharers", e.Addr)
			return
		}
		e.Sharers.ForEach(func(id int) {
			if err == nil && !m.privateHolds(&m.cores[id], e.Addr) {
				err = fmt.Errorf("directory lists core %d for %#x but the core does not hold it", id, e.Addr)
			}
		})
	})
	return err
}

// InclusionVictimTotal sums back-invalidation inclusion victims across
// cores (measured segments only).
func (m *Machine) InclusionVictimTotal() uint64 {
	var n uint64
	for i := range m.cores {
		n += m.cores[i].stats.InclusionVictims
	}
	return n
}

// DirInclusionVictimTotal sums directory-eviction-induced victims.
func (m *Machine) DirInclusionVictimTotal() uint64 {
	var n uint64
	for i := range m.cores {
		n += m.cores[i].stats.DirInclusionVictims
	}
	return n
}
