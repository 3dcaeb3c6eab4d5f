package hierarchy

import (
	"fmt"
	"strings"
	"testing"

	"zivsim/internal/char"
	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/energy"
	"zivsim/internal/trace"
)

// testConfig returns a small but fully structured machine: 4 cores, 512 B
// L1, 4 KB L2, 64 KB LLC over 8 banks.
func testConfig() Config {
	cfg := DefaultConfig(4, 256<<10, 64)
	cfg.DebugChecks = true
	cfg.CheckEvery = 512
	return cfg
}

// thrashGens builds per-core generators sized to stress the test machine:
// every core keeps a private hot set plus a circular pattern bigger than its
// LLC share.
func thrashGens(cfg Config, seed uint64) []trace.Generator {
	share := uint64(cfg.LLCBytes / cfg.Cores)
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		base := (uint64(i) + 1) << 40
		hot := trace.NewHot(base, uint64(cfg.L2Bytes)/2, share, 0.9, 0.3, 2, seed+uint64(i))
		circ := trace.NewCircular(base+1<<36, share*10/8/64, 1, 0.2, 2, seed+uint64(i)+100)
		gens[i] = trace.NewBlend(seed+uint64(i)+200, []trace.Generator{hot, circ}, []float64{1, 1})
	}
	return gens
}

func runMachine(t *testing.T, cfg Config, seed uint64, warm, meas int) *Machine {
	t.Helper()
	m := New(cfg, thrashGens(cfg, seed), warm, meas)
	m.Run()
	if err := m.CheckInclusion(); err != nil {
		t.Fatalf("%s: inclusion check: %v", cfg.Name(), err)
	}
	if err := m.LLC().CheckInvariants(); err != nil {
		t.Fatalf("%s: LLC invariants: %v", cfg.Name(), err)
	}
	return m
}

func TestInclusiveBaselineRuns(t *testing.T) {
	cfg := testConfig()
	m := runMachine(t, cfg, 1, 1000, 8000)
	for i, cs := range m.CoreStats() {
		if cs.Instructions == 0 || cs.Cycles == 0 || cs.Refs == 0 {
			t.Errorf("core %d has empty stats: %+v", i, cs)
		}
		if cs.IPC() <= 0 {
			t.Errorf("core %d IPC = %v", i, cs.IPC())
		}
	}
	if m.LLC().Stats.Fills == 0 {
		t.Error("LLC never filled")
	}
	if m.Memory().Stats.Accesses() == 0 {
		t.Error("memory never accessed")
	}
}

func TestInclusiveBaselineGeneratesInclusionVictims(t *testing.T) {
	cfg := testConfig()
	m := runMachine(t, cfg, 2, 1000, 10000)
	if m.InclusionVictimTotal() == 0 {
		t.Fatal("thrash workload produced no inclusion victims under the inclusive baseline")
	}
}

func TestNonInclusiveNeverBackInvalidates(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = NonInclusive
	m := runMachine(t, cfg, 2, 1000, 10000)
	if m.InclusionVictimTotal() != 0 {
		t.Fatalf("non-inclusive LLC produced %d inclusion victims", m.InclusionVictimTotal())
	}
}

func TestZIVZeroInclusionVictims(t *testing.T) {
	for _, tc := range []struct {
		prop   core.Property
		policy PolicyKind
	}{
		{core.PropNotInPrC, PolicyLRU},
		{core.PropLRUNotInPrC, PolicyLRU},
		{core.PropLikelyDead, PolicyLRU},
		{core.PropMaxRRPVNotInPrC, PolicyHawkeye},
		{core.PropMaxRRPVLikelyDead, PolicyHawkeye},
	} {
		t.Run(tc.prop.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Scheme = core.SchemeZIV
			cfg.Property = tc.prop
			cfg.Policy = tc.policy
			m := runMachine(t, cfg, 2, 1000, 10000)
			if got := m.InclusionVictimTotal(); got != 0 {
				t.Fatalf("ZIV produced %d inclusion victims", got)
			}
			if m.LLC().Stats.InPrCEvictions != 0 || m.LLC().Stats.ForcedInclusions != 0 {
				t.Fatalf("ZIV LLC stats show InPrC evictions: %+v", m.LLC().Stats)
			}
			if m.LLC().Stats.Relocations == 0 && m.LLC().Stats.AlternateVictims == 0 {
				t.Error("ZIV never needed relocation under a thrash workload (suspicious)")
			}
		})
	}
}

func TestQBSAndSHARPReduceInclusionVictims(t *testing.T) {
	base := runMachine(t, testConfig(), 3, 1000, 10000)
	for _, scheme := range []core.Scheme{core.SchemeQBS, core.SchemeSHARP} {
		cfg := testConfig()
		cfg.Scheme = scheme
		m := runMachine(t, cfg, 3, 1000, 10000)
		if m.InclusionVictimTotal() >= base.InclusionVictimTotal() {
			t.Errorf("%v inclusion victims (%d) not below baseline (%d)",
				scheme, m.InclusionVictimTotal(), base.InclusionVictimTotal())
		}
	}
}

func TestHawkeyeBaselineRuns(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyHawkeye
	m := runMachine(t, cfg, 4, 1000, 8000)
	if m.LLC().Stats.Hits == 0 {
		t.Error("Hawkeye LLC never hit")
	}
}

func TestMINPolicyRuns(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyMIN
	m := runMachine(t, cfg, 5, 500, 4000)
	if m.LLC().Stats.Hits == 0 {
		t.Error("MIN LLC never hit")
	}
}

func TestMINGeneratesMoreInclusionVictimsThanLRU(t *testing.T) {
	// The paper's Fig. 2 driver: MIN victimizes recently used blocks in
	// circular patterns, which are exactly the privately cached ones.
	mk := func(p PolicyKind) uint64 {
		cfg := testConfig()
		cfg.Policy = p
		m := runMachine(t, cfg, 6, 1000, 12000)
		return m.InclusionVictimTotal()
	}
	lru, min := mk(PolicyLRU), mk(PolicyMIN)
	if min <= lru {
		t.Logf("warning: MIN victims (%d) not above LRU (%d) on this workload", min, lru)
	}
	if min == 0 {
		t.Error("MIN produced no inclusion victims under circular thrash")
	}
}

func TestCHARonBaseRuns(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = core.SchemeCHARonBase
	m := runMachine(t, cfg, 7, 1000, 8000)
	if m.InclusionVictimTotal() == 0 {
		t.Log("CHARonBase eliminated all inclusion victims on this workload (possible)")
	}
}

func TestZeroDEVEliminatesDirectoryVictims(t *testing.T) {
	cfg := testConfig()
	cfg.DirFactor = 0.25 // heavily under-provisioned: forces dir conflicts
	m := runMachine(t, cfg, 8, 1000, 8000)
	if m.DirInclusionVictimTotal() == 0 {
		t.Skip("under-provisioned directory produced no victims; workload too small")
	}
	cfg2 := testConfig()
	cfg2.DirFactor = 0.25
	cfg2.ZeroDEV = true
	m2 := runMachine(t, cfg2, 8, 1000, 8000)
	if got := m2.DirInclusionVictimTotal(); got != 0 {
		t.Fatalf("ZeroDEV mode produced %d directory inclusion victims", got)
	}
	if m2.Directory().Stats.Spills == 0 {
		t.Error("ZeroDEV never spilled despite directory pressure")
	}
}

func TestSharedWorkloadCoherence(t *testing.T) {
	cfg := testConfig()
	gens := trace.NewSharedGroup(1<<40, trace.SharedConfig{
		Threads:      cfg.Cores,
		SharedBytes:  uint64(cfg.LLCBytes) / 2,
		PrivateBytes: uint64(cfg.L2Bytes) / 2,
		SharedFrac:   0.7,
		Pattern:      trace.SharedHot,
		HotFrac:      0.8,
		WriteFrac:    0.3,
		GapMean:      2,
		Seed:         11,
	})
	m := New(cfg, gens, 500, 6000)
	m.Run()
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	if m.CoherenceInvals == 0 {
		t.Error("read-write sharing produced no coherence invalidations")
	}
}

func TestNonInclusiveFourthCase(t *testing.T) {
	// Force LLC evictions of privately held shared blocks: small LLC, big
	// private residency, then re-access from another core.
	cfg := testConfig()
	cfg.Mode = NonInclusive
	gens := trace.NewSharedGroup(1<<40, trace.SharedConfig{
		Threads:      cfg.Cores,
		SharedBytes:  uint64(cfg.LLCBytes) * 2,
		PrivateBytes: uint64(cfg.L2Bytes) / 2,
		SharedFrac:   0.8,
		Pattern:      trace.SharedHot,
		HotFrac:      0.9,
		WriteFrac:    0.1,
		GapMean:      2,
		Seed:         13,
	})
	m := New(cfg, gens, 500, 10000)
	m.Run()
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	// The fourth case shows up as cache-to-cache transfers; the counter is
	// implicit in directory hits with LLC misses. We assert indirectly: the
	// run completed with invariants intact and some LLC misses were served
	// without memory accesses.
	var llcMisses, memAccesses uint64
	for _, cs := range m.CoreStats() {
		llcMisses += cs.LLCMisses
		memAccesses += cs.MemAccesses
	}
	if llcMisses == 0 {
		t.Skip("no LLC misses; workload too small to exercise the fourth case")
	}
	if memAccesses >= llcMisses {
		t.Log("no cache-to-cache transfers observed (acceptable for some schedules)")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		mut  func(*Config)
		want string // fragment of the panic message; "" accepts any
	}{
		{func(c *Config) { c.Cores = 0 }, ""},
		{func(c *Config) { c.Scheme = core.SchemeZIV; c.Property = core.PropNotInPrC; c.Mode = NonInclusive }, ""},
		{func(c *Config) { c.Policy = PolicyMIN; c.Scheme = core.SchemeQBS }, ""},
		{func(c *Config) { c.LLCBytes = c.Cores * (c.L1Bytes + c.L2Bytes) }, ""}, // aggregate private >= LLC
		// More cores than a sharer vector holds; non-inclusive, so the
		// capacity rule cannot fire instead.
		{func(c *Config) { c.Cores = directory.MaxCores + 1; c.Mode = NonInclusive }, "directory.MaxCores"},
	}
	for i, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("case %d did not panic", i)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Errorf("case %d panicked with %q, want a message naming %q", i, msg, tc.want)
				}
			}()
			cfg.Validate()
		}()
	}
}

// TestCharResetEveryInterval: the hierarchy's reset every
// CharResetInterval eviction notices is the only one that restores a
// lowered CHAR threshold. Each bank's threshold is lowered just before the
// run, so pacing (a decrement at most once per 4096 notices) keeps it from
// falling again during the short run; with an interval of 1, the notices of
// the run must bring every bank back to char.DefaultD.
func TestCharResetEveryInterval(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropLikelyDead
	cfg.CharResetInterval = 1
	m := New(cfg, thrashGens(cfg, 17), 0, 500)
	for i, th := range m.thresholders {
		th.OnEmptyPV()
		if d, _ := th.OnNotice(0); d != char.DefaultD-1 {
			t.Fatalf("bank %d: d = %d after OnEmptyPV, want %d", i, d, char.DefaultD-1)
		}
	}
	m.Run()
	if m.noticeCount == 0 || m.noticeCount >= 4096 {
		t.Fatalf("run sent %d eviction notices; the test needs between 1 and 4095", m.noticeCount)
	}
	for i, th := range m.thresholders {
		if d, _ := th.OnNotice(0); d != char.DefaultD {
			t.Errorf("bank %d: d = %d after the run, want %d", i, d, char.DefaultD)
		}
	}
}

func TestConfigName(t *testing.T) {
	cfg := testConfig()
	if cfg.Name() != "I-LRU" {
		t.Errorf("Name = %q", cfg.Name())
	}
	cfg.Mode = NonInclusive
	cfg.Policy = PolicyHawkeye
	if cfg.Name() != "NI-Hawkeye" {
		t.Errorf("Name = %q", cfg.Name())
	}
	cfg.Mode = Inclusive
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropMaxRRPVLikelyDead
	if cfg.Name() != "I-Hawkeye-ZIV(MRLikelyDead)" {
		t.Errorf("Name = %q", cfg.Name())
	}
	cfg.Scheme = core.SchemeQBS
	if cfg.Name() != "I-Hawkeye-QBS" {
		t.Errorf("Name = %q", cfg.Name())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		cfg := testConfig()
		cfg.DebugChecks = false
		m := New(cfg, thrashGens(cfg, 21), 500, 5000)
		m.Run()
		out := []uint64{m.LLC().Stats.Hits, m.LLC().Stats.Misses, m.InclusionVictimTotal()}
		for _, cs := range m.CoreStats() {
			out = append(out, cs.Cycles, cs.Instructions)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at field %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWarmupResetsGlobalStats(t *testing.T) {
	cfg := testConfig()
	cfg.DebugChecks = false
	m := New(cfg, thrashGens(cfg, 31), 2000, 2000)
	m.Run()
	// After warmup reset, fills counted should be well below total traffic
	// including warmup (the reset happened).
	var refs uint64
	for _, cs := range m.CoreStats() {
		refs += cs.Refs
	}
	if refs != uint64(cfg.Cores)*2000 {
		t.Errorf("measured refs = %d, want %d", refs, cfg.Cores*2000)
	}
}

func TestEnergyAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropNotInPrC
	m := runMachine(t, cfg, 9, 500, 6000)
	var insts uint64
	for _, cs := range m.CoreStats() {
		insts += cs.Instructions
	}
	if m.Meter().EPI(insts) <= 0 {
		t.Error("EPI not positive")
	}
	if m.LLC().Stats.Relocations > 0 && m.Meter().Count(energy.Relocation) == 0 {
		t.Error("relocations happened but no relocation energy recorded")
	}
}

func TestZIVOracleProperty(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropOracleNotInPrC
	m := runMachine(t, cfg, 12, 1000, 8000)
	if got := m.InclusionVictimTotal(); got != 0 {
		t.Fatalf("oracle-assisted ZIV produced %d inclusion victims", got)
	}
	if m.LLC().Stats.Relocations == 0 && m.LLC().Stats.AlternateVictims == 0 {
		t.Error("oracle-assisted ZIV never relocated under thrash")
	}
}

func TestZIVSelectLowestAblation(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropNotInPrC
	cfg.SelectLowest = true
	m := runMachine(t, cfg, 13, 1000, 8000)
	if got := m.InclusionVictimTotal(); got != 0 {
		t.Fatalf("SelectLowest ZIV produced %d inclusion victims", got)
	}
	if m.LLC().Stats.Relocations > 10 {
		if skew := m.LLC().RelocTargetSkew(); skew < 1.0 {
			t.Errorf("RelocTargetSkew = %v, must be >= 1", skew)
		}
	}
}

// Regression: a ZeroDEV spill of a directory entry that tracks a relocated
// block must retarget the block's tag-encoded pointer (found via fig15's
// ZIV+ZeroDEV matrix).
func TestZIVWithZeroDEVSpills(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropNotInPrC
	cfg.ZeroDEV = true
	cfg.DirFactor = 0.25 // force spills
	m := runMachine(t, cfg, 17, 1000, 12000)
	if m.InclusionVictimTotal() != 0 || m.DirInclusionVictimTotal() != 0 {
		t.Fatalf("ZIV+ZeroDEV produced victims: %d back-inval, %d directory",
			m.InclusionVictimTotal(), m.DirInclusionVictimTotal())
	}
	if m.Directory().Stats.Spills == 0 {
		t.Skip("no spills triggered; directory not pressured enough")
	}
}

func TestZIVOnSRRIP(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicySRRIP
	cfg.Scheme = core.SchemeZIV
	cfg.Property = core.PropMaxRRPVNotInPrC
	m := runMachine(t, cfg, 19, 1000, 8000)
	if got := m.InclusionVictimTotal(); got != 0 {
		t.Fatalf("ZIV on SRRIP produced %d inclusion victims", got)
	}
	if m.LLC().Stats.Hits == 0 {
		t.Error("SRRIP LLC never hit")
	}
}

func TestConfigTableIMappings(t *testing.T) {
	// Table I: L2 lookup latency grows with capacity; 768KB is 12-way.
	if l2LatencyFor(256<<10) != 4 || l2LatencyFor(512<<10) != 5 || l2LatencyFor(768<<10) != 6 || l2LatencyFor(1<<20) != 7 {
		t.Error("l2LatencyFor drifted from Table I")
	}
	if relocDeltaFor(256<<10) != 1 || relocDeltaFor(512<<10) != 2 || relocDeltaFor(768<<10) != 3 {
		t.Error("relocDeltaFor drifted from §III-C1")
	}
	if waysFor(768<<10) != 12 || waysFor(512<<10) != 8 {
		t.Error("waysFor drifted from Table I")
	}
	if dirWaysFor(768<<10) != 12 || dirWaysFor(256<<10) != 8 {
		t.Error("dirWaysFor drifted from §III-C3")
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(8, 512<<10, 1)
	if cfg.LLCBytes != 8<<20 || cfg.L2Bytes != 512<<10 || cfg.L1Bytes != 32<<10 {
		t.Errorf("full-scale geometry wrong: %+v", cfg)
	}
	if cfg.LLCBanks != 8 || cfg.LLCWays != 16 {
		t.Error("LLC organization drifted from Table I")
	}
	// 128-core TPC-E-style machine: LLC defaults to 1 MB per core.
	cfg128 := DefaultConfig(128, 128<<10, 1)
	if cfg128.LLCBytes != 128<<20 {
		t.Errorf("128-core LLC = %d", cfg128.LLCBytes)
	}
	// Scaling divides capacities but not ways/latencies.
	s8 := DefaultConfig(8, 512<<10, 8)
	if s8.LLCBytes != 1<<20 || s8.L2Bytes != 64<<10 || s8.L2Ways != 8 || s8.L2Latency != 5 {
		t.Errorf("scaled geometry wrong: %+v", s8)
	}
}

func TestSRRIPPolicyKindString(t *testing.T) {
	if PolicySRRIP.String() != "SRRIP" {
		t.Error("PolicySRRIP name wrong")
	}
	if PolicyKind(99).String() != "?" {
		t.Error("unknown policy kind should stringify to ?")
	}
}
