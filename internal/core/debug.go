package core

import (
	"fmt"

	"zivsim/internal/directory"
)

// CheckInvariants validates the LLC's internal consistency against the
// sparse directory. It is used by tests and, with Config.DebugChecks, by the
// hierarchy after every simulated event. The invariants are:
//
//  1. NotInPrC agreement: a valid non-relocated block has NotInPrC set iff
//     the directory does not track it (i.e. no private cache holds it).
//  2. Relocated linkage: every relocated block's directory pointer resolves
//     to a valid entry in Relocated state whose location points back at the
//     block; conversely every Relocated directory entry points at a valid
//     relocated LLC block for the same address.
//  3. Way-mask nesting: LikelyDead implies NotInPrC, which implies Valid.
//  4. Property-vector coherence: each configured PV bit equals the set
//     predicate evaluated on the set's way masks.
//  5. No duplicate addresses among non-relocated blocks, and no relocated
//     block shadowing a non-relocated copy of the same address.
func (l *LLC) CheckInvariants() error {
	seen := make(map[uint64]bool, l.ValidCount())
	for i := range l.banks {
		bk := &l.banks[i]
		for s, m := range bk.masks {
			if m.dead&^m.notInPrC != 0 || m.notInPrC&^m.valid != 0 {
				return fmt.Errorf("bank %d set %d: LikelyDead without NotInPrC or NotInPrC without Valid (masks %#x, %#x, %#x)", i, s, m.valid, m.notInPrC, m.dead)
			}
			for w := 0; w < l.cfg.Ways; w++ {
				loc := directory.Location{Bank: i, Set: s, Way: w}
				b := l.BlockAt(loc)
				wantTag := tagNone
				if b.Valid && !b.Relocated {
					wantTag = b.Addr
				}
				if got := bk.tags[s*l.cfg.Ways+w]; got != wantTag {
					return fmt.Errorf("bank %d set %d way %d: tag sidecar %#x != expected %#x", i, s, w, got, wantTag)
				}
				if !b.Valid {
					continue
				}
				if seen[b.Addr] {
					return fmt.Errorf("block %#x duplicated in LLC", b.Addr)
				}
				seen[b.Addr] = true
				if b.Relocated {
					e := l.dir.At(b.DirPtr)
					if e == nil || !e.Valid {
						return fmt.Errorf("relocated block %#x at %+v: stale directory pointer %+v", b.Addr, loc, b.DirPtr)
					}
					if !e.Relocated {
						return fmt.Errorf("relocated block %#x at %+v: directory entry not in Relocated state", b.Addr, loc)
					}
					if e.Loc != loc {
						return fmt.Errorf("relocated block %#x: directory location %+v != actual %+v", b.Addr, e.Loc, loc)
					}
					if b.NotInPrC {
						return fmt.Errorf("relocated block %#x marked NotInPrC (must have private copies)", b.Addr)
					}
					continue
				}
				tracked := l.dir.Tracked(b.Addr)
				if b.NotInPrC == tracked {
					return fmt.Errorf("block %#x at %+v: NotInPrC=%v but directory tracked=%v", b.Addr, loc, b.NotInPrC, tracked)
				}
			}
			for _, lev := range l.levels {
				if got, want := bk.pvs[lev].Get(s), l.setSatisfies(bk, s, lev); got != want {
					return fmt.Errorf("bank %d set %d: %v PV bit %v, recomputed %v", i, s, lev, got, want)
				}
			}
		}
	}
	// Reverse direction of the relocated linkage.
	var err error
	l.dir.ForEach(func(e *directory.Entry, p directory.Ptr) {
		if err != nil || !e.Relocated {
			return
		}
		b := l.BlockAt(e.Loc)
		if !b.Valid || !b.Relocated || b.Addr != e.Addr {
			err = fmt.Errorf("directory entry %#x Relocated -> %+v, but LLC block there is %+v", e.Addr, e.Loc, b)
			return
		}
		if b.DirPtr != p {
			err = fmt.Errorf("directory entry %#x at %+v: block back-pointer %+v mismatch", e.Addr, p, b.DirPtr)
		}
	})
	return err
}
