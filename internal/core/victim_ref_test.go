package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"zivsim/internal/directory"
	"zivsim/internal/policy"
)

// The reference victim searches below are the rank-walk versions that
// predate the way masks and the masked Victim query: each walks the full
// Rank order over the set's Blocks. TestVictimSearchesMatchRankWalk holds
// the mask-driven searches to them, and the property predicates to a scan
// of the Blocks.

// blockOf returns way w of the bank's set as BlockAt assembles it.
func (l *LLC) blockOf(bk *bank, set, w int) Block {
	return l.BlockAt(directory.Location{Bank: bk.id, Set: set, Way: w})
}

// refSetSatisfies evaluates a relocation-set property by scanning the
// set's Blocks.
func (l *LLC) refSetSatisfies(bk *bank, set int, lev level) bool {
	for w := 0; w < l.cfg.Ways; w++ {
		b := l.blockOf(bk, set, w)
		switch {
		case lev == levInvalid:
			if !b.Valid {
				return true
			}
		case !b.Valid || !b.NotInPrC:
		case lev == levNotInPrC:
			return true
		case lev == levLikelyDead:
			if b.LikelyDead {
				return true
			}
		case lev == levLRU:
			if w == bk.pol.Rank(set)[0] {
				return true
			}
		case lev == levMaxRRPV:
			if bk.rrip.RRPV(set, w) == bk.rrip.MaxRRPV() {
				return true
			}
		}
	}
	return false
}

// refRelocVictimWay is the rank-walk relocVictimWay.
func (l *LLC) refRelocVictimWay(bk *bank, set int) int {
	order := bk.pol.Rank(set)
	firstWhere := func(pred func(b *Block, w int) bool) int {
		for _, w := range order {
			b := l.blockOf(bk, set, w)
			if b.Valid && pred(&b, w) {
				return w
			}
		}
		return -1
	}
	switch l.cfg.Property {
	case PropNotInPrC, PropLRUNotInPrC, PropMaxRRPVNotInPrC:
		return firstWhere(func(b *Block, _ int) bool { return b.NotInPrC })
	case PropLikelyDead:
		if w := firstWhere(func(b *Block, _ int) bool { return b.LikelyDead && b.NotInPrC }); w >= 0 {
			return w
		}
		return firstWhere(func(b *Block, _ int) bool { return b.NotInPrC })
	case PropOracleNotInPrC:
		w, _ := l.oracleVictimIn(bk, set)
		return w
	case PropMaxRRPVLikelyDead:
		max := bk.rrip.MaxRRPV()
		if w := firstWhere(func(b *Block, w int) bool { return b.NotInPrC && bk.rrip.RRPV(set, w) == max }); w >= 0 {
			return w
		}
		if w := firstWhere(func(b *Block, _ int) bool { return b.LikelyDead && b.NotInPrC }); w >= 0 {
			return w
		}
		return firstWhere(func(b *Block, _ int) bool { return b.NotInPrC })
	}
	return -1
}

// refCharOnBaseVictim is the rank-walk charOnBaseVictim.
func (l *LLC) refCharOnBaseVictim(bk *bank, set int) int {
	order := bk.pol.Rank(set)
	v0 := order[0]
	if l.blockOf(bk, set, v0).NotInPrC {
		return v0
	}
	for _, w := range order {
		b := l.blockOf(bk, set, w)
		if b.Valid && b.LikelyDead && b.NotInPrC {
			return w
		}
	}
	return v0
}

// refSharpVictim is the rank-walk sharpVictim, whose stage 1 walks the
// copied Rank order before the directory stage walks it again.
func (l *LLC) refSharpVictim(bk *bank, set, requester int) int {
	order := l.rankScratch[:copy(l.rankScratch, bk.pol.Rank(set))]
	for _, w := range order {
		if l.blockOf(bk, set, w).NotInPrC {
			return w
		}
	}
	for _, w := range order {
		b := l.blockOf(bk, set, w)
		if b.Relocated {
			continue
		}
		if e, _, ok := l.dir.Find(b.Addr); ok && e.Sharers.Count() == 1 && e.Sharers.Has(requester) {
			return w
		}
	}
	l.Stats.SHARPFallback++
	return int(l.rand() % uint64(l.cfg.Ways))
}

// TestVictimSearchesMatchRankWalk drives two identical LLCs with the same
// random traffic. Before every access it asks a random set of one LLC for
// its victim through the mask-driven search and the same set of the other
// through the rank-walk reference; the answers must agree. Both queries
// take effect (SRRIP ages the set), so the LLCs stay in lockstep only if
// the two searches have the same side effects on the policy, which the
// RRPV comparison and the final statistics check.
func TestVictimSearchesMatchRankWalk(t *testing.T) {
	for _, c := range schemeCombos() {
		if c.scheme != SchemeZIV && c.scheme != SchemeSHARP && c.scheme != SchemeCHARonBase {
			continue
		}
		pol := strings.TrimPrefix(fmt.Sprintf("%T", c.pol()), "*policy.")
		name := c.scheme.String() + "-" + c.prop.String() + "-" + pol
		t.Run(name, func(t *testing.T) {
			fast, fastDir := mkLLC(t, c.scheme, c.prop, c.pol)
			ref, refDir := mkLLC(t, c.scheme, c.prop, c.pol)
			df := newDriver(t, fast, fastDir, 12)
			dr := newDriver(t, ref, refDir, 12)
			df.deadNotices, dr.deadNotices = true, true
			rng := rand.New(rand.NewSource(17))
			found := 0
			for i := 0; i < 3000; i++ {
				bank, set := rng.Intn(fast.cfg.Banks), rng.Intn(fast.cfg.SetsPerBank)
				requester := rng.Intn(4)
				fb, rb := &fast.banks[bank], &ref.banks[bank]
				got, want := -1, -1
				switch full := fb.masks[set].valid == fast.allWays; {
				case c.scheme == SchemeZIV:
					got, want = fast.relocVictimWay(fb, set), ref.refRelocVictimWay(rb, set)
				case !full:
					// SHARP and CHARonBase only search full sets.
				case c.scheme == SchemeSHARP:
					got, want = fast.sharpVictim(fb, set, requester), ref.refSharpVictim(rb, set, requester)
				default:
					got, want = fast.charOnBaseVictim(fb, set), ref.refCharOnBaseVictim(rb, set)
				}
				if got != want {
					t.Fatalf("access %d, bank %d set %d: mask-driven victim %d, rank-walk victim %d", i, bank, set, got, want)
				}
				for _, lev := range fast.levels {
					if got, want := fast.setSatisfies(fb, set, lev), ref.refSetSatisfies(rb, set, lev); got != want {
						t.Fatalf("access %d, bank %d set %d: %v predicate %v from the masks, %v from the Blocks", i, bank, set, lev, got, want)
					}
				}
				if got >= 0 {
					found++
				}
				if rr, ok := fb.pol.(policy.RRPVer); ok {
					for w := 0; w < fast.cfg.Ways; w++ {
						if a, b := rr.RRPV(set, w), rb.pol.(policy.RRPVer).RRPV(set, w); a != b {
							t.Fatalf("access %d, bank %d set %d way %d: RRPV %d after the mask-driven search, %d after the rank walk", i, bank, set, w, a, b)
						}
					}
				}
				// In the fill path an eviction from the searched set follows
				// every search and refreshes its property bits, which SRRIP's
				// aging may have changed.
				fb.updateSet(fast, set)
				rb.updateSet(ref, set)

				coreID, addr, pc := rng.Intn(4), uint64(rng.Intn(100)), uint64(rng.Intn(8))*4
				df.access(coreID, addr, pc)
				dr.access(coreID, addr, pc)
				if rng.Intn(4) == 0 {
					df.dropPrivate(coreID, addr)
					dr.dropPrivate(coreID, addr)
				}
			}
			df.check()
			dr.check()
			if fast.Stats != ref.Stats {
				t.Fatalf("statistics diverged:\nmask-driven %+v\nrank-walk   %+v", fast.Stats, ref.Stats)
			}
			if found == 0 {
				t.Fatal("no probe found a victim")
			}
			if c.scheme == SchemeZIV && found == 3000 {
				t.Fatal("every relocation-victim probe found a victim; the workload never exercised the empty answer")
			}
		})
	}
}
