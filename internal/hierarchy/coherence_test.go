package hierarchy

import (
	"testing"

	"zivsim/internal/core"
	"zivsim/internal/trace"
)

// script is a generator replaying a fixed reference sequence cyclically.
type script struct {
	refs []trace.Ref
	pos  int
}

func (g *script) Next() trace.Ref {
	r := g.refs[g.pos]
	g.pos = (g.pos + 1) % len(g.refs)
	return r
}

func (g *script) Reset() { g.pos = 0 }

// scriptMachine builds a machine where each core replays a fixed reference
// script cyclically.
func scriptMachine(t *testing.T, cfg Config, scripts [][]trace.Ref, warm, meas int) *Machine {
	t.Helper()
	gens := make([]trace.Generator, len(scripts))
	for i, s := range scripts {
		gens[i] = &script{refs: s}
	}
	m := New(cfg, gens, warm, meas)
	m.Run()
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	return m
}

func rd(addr uint64) trace.Ref { return trace.Ref{Addr: addr, Gap: 1} }
func wr(addr uint64) trace.Ref { return trace.Ref{Addr: addr, Write: true, Gap: 1} }

func TestWriteSharingInvalidatesOtherCores(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.LLCBytes = testConfig().LLCBytes // keep capacity valid for 2 cores
	// Both cores write the same block (plus private filler to force L1
	// pressure): every ownership transfer invalidates the other core's copy.
	x := uint64(0x10000)
	s0 := []trace.Ref{wr(x), rd(0x20000), rd(0x20040)}
	s1 := []trace.Ref{wr(x), rd(0x30000), rd(0x30040)}
	m := scriptMachine(t, cfg, [][]trace.Ref{s0, s1}, 100, 3000)
	if m.CoherenceInvals == 0 {
		t.Fatal("alternating writers never invalidated each other")
	}
	// Inclusion victims are a different mechanism; ping-ponging ownership
	// must not be counted as inclusion victims... they may still occur from
	// LLC pressure, but with this tiny footprint there is none.
	if got := m.InclusionVictimTotal(); got != 0 {
		t.Errorf("coherence traffic miscounted as %d inclusion victims", got)
	}
}

func TestReadSharingKeepsAllCopies(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	x := uint64(0x10000)
	s := []trace.Ref{rd(x), rd(x + 64), rd(x + 128)}
	m := scriptMachine(t, cfg, [][]trace.Ref{s, s}, 100, 3000)
	if m.CoherenceInvals != 0 {
		t.Fatalf("read-only sharing caused %d coherence invalidations", m.CoherenceInvals)
	}
	// Both cores should converge to near-perfect L1 hit rates.
	for i, cs := range m.CoreStats() {
		if cs.L1Hits < cs.L1Misses {
			t.Errorf("core %d: read sharing did not settle into L1 hits: %+v", i, cs)
		}
	}
}

func TestDirtyDataReachesMemoryOnEviction(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	cfg.LLCBytes = 16 << 10 // tiny LLC: plenty of dirty evictions
	cfg.L2Bytes = 2 << 10
	cfg.L1Bytes = 512
	// Streaming writes over 4x the LLC.
	refs := make([]trace.Ref, 1024)
	for i := range refs {
		refs[i] = wr(uint64(i) * 64)
	}
	m := scriptMachine(t, cfg, [][]trace.Ref{refs}, 0, 5000)
	if m.Memory().Stats.Writes == 0 {
		t.Fatal("dirty evictions never wrote back to memory")
	}
}

func TestNonInclusiveDirtyVictimGoesToMemory(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	cfg.Mode = NonInclusive
	cfg.LLCBytes = 16 << 10
	cfg.L2Bytes = 2 << 10
	cfg.L1Bytes = 512
	refs := make([]trace.Ref, 2048)
	for i := range refs {
		refs[i] = wr(uint64(i) * 64)
	}
	m := scriptMachine(t, cfg, [][]trace.Ref{refs}, 0, 8000)
	// With the LLC evicting blocks before their private copies leave, the
	// eventual L2 dirty victims miss the LLC and must land in memory.
	if m.Memory().Stats.Writes == 0 {
		t.Fatal("non-inclusive dirty victims never reached memory")
	}
}

func TestUpgradeOnL2Hit(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	x := uint64(0x40000)
	// Core 0 reads x (shared), then writes it (upgrade); filler evicts x
	// from core 0's L1 but not L2, so the write hits L2 non-writable.
	s0 := make([]trace.Ref, 0, 20)
	s0 = append(s0, rd(x))
	for i := 0; i < 16; i++ {
		s0 = append(s0, rd(0x50000+uint64(i)*64))
	}
	s0 = append(s0, wr(x))
	s1 := []trace.Ref{rd(x)}
	m := scriptMachine(t, cfg, [][]trace.Ref{s0, s1}, 0, 2000)
	if m.CoherenceInvals == 0 {
		t.Fatal("upgrade path never invalidated the other sharer")
	}
}

func TestMachineDeterministicAcrossConstructions(t *testing.T) {
	mk := func() *Machine {
		cfg := testConfig()
		cfg.DebugChecks = false
		m := New(cfg, thrashGens(cfg, 77), 500, 4000)
		m.Run()
		return m
	}
	a, b := mk(), mk()
	if a.LLC().Stats != b.LLC().Stats {
		t.Fatal("LLC stats differ between identical machines")
	}
	as, bs := a.CoreStats(), b.CoreStats()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("core %d stats differ", i)
		}
	}
}

func TestZIVWithWritebacksToRelocatedBlocks(t *testing.T) {
	// Dirty traffic over a ZIV LLC: relocated blocks must carry dirtiness to
	// memory when invalidated (§III-C2). We assert indirectly: heavy dirty
	// thrash with relocations completes with invariants intact and memory
	// sees writes.
	cfg := testConfig()
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropNotInPrC
	share := uint64(cfg.LLCBytes / cfg.Cores)
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		base := (uint64(i) + 1) << 40
		gens[i] = trace.NewCircular(base, share*12/8/64, 1, 0.8, 1, uint64(i+1))
	}
	m := New(cfg, gens, 500, 8000)
	m.Run()
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	if err := m.LLC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.InclusionVictimTotal() != 0 {
		t.Fatal("dirty ZIV thrash generated inclusion victims")
	}
	if m.Memory().Stats.Writes == 0 {
		t.Fatal("no dirty data reached memory")
	}
}

func TestL2MetaReuseCounting(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	cfg.Scheme = core.SchemeCHARonBase // enables CHAR engines
	x := uint64(0x60000)
	// Hit x in L2 repeatedly (L1 evictions in between via filler).
	refs := []trace.Ref{rd(x)}
	for i := 0; i < 8; i++ {
		refs = append(refs, rd(0x70000+uint64(i)*64))
	}
	m := scriptMachine(t, cfg, [][]trace.Ref{refs}, 0, 3000)
	_ = m // completing with CheckInclusion is the assertion; CHAR metadata
	// paths are exercised through the CHARonBase engine wiring.
}

func TestWarmupOnlyRun(t *testing.T) {
	cfg := testConfig()
	cfg.DebugChecks = false
	m := New(cfg, thrashGens(cfg, 5), 2000, 1)
	m.Run()
	var refs uint64
	for _, cs := range m.CoreStats() {
		refs += cs.Refs
	}
	if refs != uint64(cfg.Cores) {
		t.Fatalf("measured refs = %d, want exactly %d (one per core)", refs, cfg.Cores)
	}
}

func TestZeroWarmup(t *testing.T) {
	cfg := testConfig()
	cfg.DebugChecks = false
	m := New(cfg, thrashGens(cfg, 6), 0, 1000)
	m.Run()
	for i, cs := range m.CoreStats() {
		if cs.Refs != 1000 {
			t.Fatalf("core %d measured %d refs, want 1000", i, cs.Refs)
		}
	}
}
