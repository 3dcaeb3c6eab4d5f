package core

import (
	"testing"

	"zivsim/internal/directory"
	"zivsim/internal/policy"
)

// BenchmarkFill times Fill on a warmed, full LLC for every scheme and
// property configuration the figures run. A third of the low address range
// stays tracked by the directory, so a third of the candidate victims are
// privately cached and each scheme's victim search does its work. Every
// other fill of an untracked block is then noticed dead, which feeds the
// LikelyDead classes (other schemes ignore the bit).
func BenchmarkFill(b *testing.B) {
	for _, c := range []struct {
		name   string
		scheme Scheme
		prop   Property
		pol    func() policy.Policy
	}{
		{"Baseline-LRU", SchemeBaseline, PropNone, lruPol},
		{"QBS-LRU", SchemeQBS, PropNone, lruPol},
		{"SHARP-LRU", SchemeSHARP, PropNone, lruPol},
		{"CHARonBase-LRU", SchemeCHARonBase, PropNone, lruPol},
		{"ZIV-NotInPrC-LRU", SchemeZIV, PropNotInPrC, lruPol},
		{"ZIV-LRUNotInPrC-LRU", SchemeZIV, PropLRUNotInPrC, lruPol},
		{"ZIV-LikelyDead-LRU", SchemeZIV, PropLikelyDead, lruPol},
		{"ZIV-MRNotInPrC-Hawkeye", SchemeZIV, PropMaxRRPVNotInPrC, hawkeyePol},
		{"ZIV-MRLikelyDead-Hawkeye", SchemeZIV, PropMaxRRPVLikelyDead, hawkeyePol},
	} {
		b.Run(c.name, func(b *testing.B) {
			dir := directory.New(directory.Config{Slices: 8, SetsPerSlice: 256, Ways: 8})
			llc := New(Config{
				Banks: 8, SetsPerBank: 64, Ways: 16,
				Scheme: c.scheme, Property: c.prop,
				NewPolicy: c.pol,
			}, dir)
			for a := uint64(0); a < 4096; a += 3 {
				dir.Allocate(a, int(a%8), directory.Shared)
			}
			i := uint64(0)
			fill := func() {
				addr := i % (1 << 20)
				i++
				e, _, tracked := dir.Find(addr)
				if tracked && e.Relocated {
					return // resident at its relocated location
				}
				if _, hit := llc.Probe(addr); hit {
					return
				}
				llc.Fill(addr, int(addr%8), false, tracked, policy.Meta{PC: addr % 13 * 4, Addr: addr}, i)
				if !tracked && addr%2 == 0 {
					llc.MarkNotInPrC(addr, false, true, 0, int(addr%8))
				}
			}
			for j := 0; j < 4*llc.Sets()*llc.Config().Ways; j++ {
				fill() // reach the full-LLC steady state
			}
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				fill()
			}
		})
	}
}
