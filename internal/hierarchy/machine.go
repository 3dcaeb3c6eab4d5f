package hierarchy

import (
	"fmt"

	"zivsim/internal/cache"
	"zivsim/internal/char"
	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/dram"
	"zivsim/internal/energy"
	"zivsim/internal/metrics"
	"zivsim/internal/noc"
	"zivsim/internal/obs"
	"zivsim/internal/policy"
	"zivsim/internal/trace"
)

// l2Meta carries the per-L2-block attributes CHAR classifies on.
type l2Meta struct {
	demandReuses uint8
	llcHit       bool // filled into the private caches via an LLC hit
}

// coreState is one simulated core: its trace, private caches and counters.
type coreState struct {
	id     int
	gen    trace.Generator
	l1     *cache.Cache
	l2     *cache.Cache
	l2meta []l2Meta

	// refIdx counts references issued (warmup + measured). The warmup
	// bookkeeping in Run watches it through the notWarm countdown, which
	// must be re-examined after every advance.
	//
	//ziv:mirror(notWarm)
	refIdx uint64
	done   bool // finished its measured segment

	stats metrics.CoreStats
}

// Machine is the simulated CMP.
type Machine struct {
	cfg   Config
	cores []coreState
	// clock holds each core's local clock, indexed by core id, in one
	// contiguous array: earliest's per-step scan touches a couple of
	// cache lines instead of striding across the coreState structs.
	clock []uint64
	llc   *core.LLC
	dir   *directory.Directory
	mem   *dram.Memory
	mesh  *noc.Mesh
	meter *energy.Meter

	charEngines  []*char.Engine
	thresholders []*char.BankThresholder
	noticeCount  uint64

	minOracle *policy.StreamOracle

	measuredRefs uint64 // per-core measured segment length
	warmupRefs   uint64
	checkCounter int

	// CoherenceInvals counts private-cache invalidations caused by write
	// upgrades (distinct from inclusion victims).
	CoherenceInvals uint64

	// Observability (nil/empty when detached — the only cost then is one
	// branch per probe point). ring aliases obsv.Ring for the probe hot
	// path; obsCoreSnap and obsBankReloc are sampler scratch reused every
	// interval so sampling allocates nothing.
	obsv         *obs.Observer
	ring         *obs.Ring
	obsCoreSnap  []obs.CoreSnap
	obsBankReloc []uint64
}

// New builds a machine running the given per-core generators. For
// PolicyMIN, the canonical global stream oracle is precomputed over
// warmup+measure references per core.
func New(cfg Config, gens []trace.Generator, warmup, measure int) *Machine {
	cfg.Validate()
	if len(gens) != cfg.Cores {
		panic(fmt.Sprintf("hierarchy: %d generators for %d cores", len(gens), cfg.Cores))
	}

	l2Blocks := cfg.L2Bytes / cache.BlockBytes
	dirSets := directory.SizeFor(cfg.Cores, l2Blocks, cfg.LLCBanks, cfg.DirWays, cfg.DirFactor)
	dir := directory.New(directory.Config{
		Slices:       cfg.LLCBanks,
		SetsPerSlice: dirSets,
		Ways:         cfg.DirWays,
		ZeroDEV:      cfg.ZeroDEV,
	})

	m := &Machine{
		cfg:          cfg,
		dir:          dir,
		mem:          dram.New(cfg.Mem),
		mesh:         noc.New(noc.DefaultConfig(cfg.Cores, cfg.LLCBanks)),
		meter:        energy.NewMeter(energy.DefaultTable()),
		measuredRefs: uint64(measure),
		warmupRefs:   uint64(warmup),
	}

	if cfg.Policy == PolicyMIN || cfg.Property == core.PropOracleNotInPrC {
		m.minOracle = policy.NewStreamOracle(trace.CanonicalStream(gens, warmup+measure))
	}

	needChar := cfg.Scheme == core.SchemeCHARonBase ||
		(cfg.Scheme == core.SchemeZIV && (cfg.Property == core.PropLikelyDead || cfg.Property == core.PropMaxRRPVLikelyDead))
	if needChar {
		m.charEngines = make([]*char.Engine, cfg.Cores)
		for i := range m.charEngines {
			m.charEngines[i] = char.NewEngine()
		}
		m.thresholders = make([]*char.BankThresholder, cfg.LLCBanks)
		for i := range m.thresholders {
			m.thresholders[i] = char.NewBankThresholder(cfg.Cores)
		}
	}

	llcSets := cfg.LLCBytes / cache.BlockBytes / cfg.LLCWays / cfg.LLCBanks
	llcCfg := core.Config{
		Banks:         cfg.LLCBanks,
		SetsPerBank:   llcSets,
		Ways:          cfg.LLCWays,
		Scheme:        cfg.Scheme,
		Property:      cfg.Property,
		NewPolicy:     m.newLLCPolicy,
		Thresholders:  m.thresholders,
		SelectLowest:  cfg.SelectLowest,
		FillCrossBank: cfg.FillCrossBank,
		DebugChecks:   cfg.DebugChecks,
	}
	if cfg.Property == core.PropOracleNotInPrC {
		llcCfg.Oracle = m.minOracle
	}
	m.llc = core.New(llcCfg, dir)

	m.cores = make([]coreState, cfg.Cores)
	m.clock = make([]uint64, cfg.Cores)
	for i := range m.cores {
		l1Sets := cfg.L1Bytes / cache.BlockBytes / cfg.L1Ways
		l2Sets := cfg.L2Bytes / cache.BlockBytes / cfg.L2Ways
		m.cores[i] = coreState{
			id:     i,
			gen:    gens[i],
			l1:     cache.New(fmt.Sprintf("l1.%d", i), l1Sets, cfg.L1Ways),
			l2:     cache.New(fmt.Sprintf("l2.%d", i), l2Sets, cfg.L2Ways),
			l2meta: make([]l2Meta, l2Sets*cfg.L2Ways),
		}
		gens[i].Reset()
	}
	return m
}

// newLLCPolicy constructs one per-bank LLC replacement policy.
func (m *Machine) newLLCPolicy() policy.Policy {
	switch m.cfg.Policy {
	case PolicyLRU:
		return policy.NewLRU()
	case PolicyHawkeye:
		return policy.NewHawkeye(4)
	case PolicyMIN:
		return policy.NewMIN(m.minOracle)
	case PolicySRRIP:
		return policy.NewSRRIP()
	}
	panic("hierarchy: unknown policy kind")
}

// LLC exposes the LLC for statistics readers.
func (m *Machine) LLC() *core.LLC { return m.llc }

// Directory exposes the sparse directory for statistics readers.
func (m *Machine) Directory() *directory.Directory { return m.dir }

// Memory exposes the DRAM model for statistics readers.
func (m *Machine) Memory() *dram.Memory { return m.mem }

// Meter exposes the energy meter.
func (m *Machine) Meter() *energy.Meter { return m.meter }

// CoreStats returns the measured-segment statistics of each core.
func (m *Machine) CoreStats() []metrics.CoreStats {
	out := make([]metrics.CoreStats, len(m.cores))
	for i := range m.cores {
		out[i] = m.cores[i].stats
	}
	return out
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// ---- private-cache mechanics ----

// l2MetaAt returns the metadata slot of the L2 block at (set, way).
func (c *coreState) l2MetaAt(set, way int) *l2Meta {
	return &c.l2meta[set*c.l2.Ways()+way]
}

// privateHolds reports whether core c's private hierarchy holds blockAddr.
func (m *Machine) privateHolds(c *coreState, blockAddr uint64) bool {
	return c.l1.Contains(blockAddr) || c.l2.Contains(blockAddr)
}

// fillL1 installs a block in core c's L1, cascading the victim.
func (m *Machine) fillL1(c *coreState, blockAddr uint64, dirty, writable bool) {
	set := c.l1.SetIndex(blockAddr)
	way, valid := c.l1.Victim(set)
	if valid {
		m.handleL1Victim(c, c.l1.EvictWay(set, way))
	}
	c.l1.FillWay(set, way, blockAddr, dirty, writable)
}

// handleL1Victim processes an L1 replacement victim: dirty data merges into
// (or allocates in) the L2; a block leaving the core entirely sends an
// eviction notice.
func (m *Machine) handleL1Victim(c *coreState, victim cache.Block) {
	if w, hit := c.l2.Lookup(victim.Addr); hit {
		if victim.Dirty {
			c.l2.SetDirty(c.l2.SetIndex(victim.Addr), w)
		}
		return
	}
	if victim.Dirty {
		// Writeback-allocate into the (non-inclusive) private L2.
		m.fillL2(c, victim.Addr, true, victim.Writable, l2Meta{})
		return
	}
	// Clean block leaving the core entirely: dataless eviction notice. L1
	// victims carry no CHAR classification (only L2 evictions are
	// classified).
	m.evictionNotice(c, victim.Addr, false, false, 0)
}

// fillL2 installs a block in core c's L2, cascading the victim, and records
// its CHAR metadata.
func (m *Machine) fillL2(c *coreState, blockAddr uint64, dirty, writable bool, md l2Meta) {
	set := c.l2.SetIndex(blockAddr)
	way, valid := c.l2.Victim(set)
	if valid {
		victim := c.l2.EvictWay(set, way)
		vm := *c.l2MetaAt(set, way)
		m.handleL2Victim(c, victim, vm)
	}
	c.l2.FillWay(set, way, blockAddr, dirty, writable)
	*c.l2MetaAt(set, way) = md
}

// handleL2Victim processes an L2 replacement victim per §III-D6: if the L1
// still holds the block, the private residency continues (dirty state is
// merged into the L1 copy); otherwise an eviction notice or writeback goes
// to the home bank, carrying CHAR's dead-inference bit.
func (m *Machine) handleL2Victim(c *coreState, victim cache.Block, md l2Meta) {
	if w, hit := c.l1.Lookup(victim.Addr); hit {
		if victim.Dirty {
			c.l1.SetDirty(c.l1.SetIndex(victim.Addr), w)
		}
		return
	}
	dead := false
	group := uint8(0)
	if m.charEngines != nil {
		group = char.GroupOf(false, md.llcHit, int(md.demandReuses), victim.Dirty)
		dead = m.charEngines[c.id].OnEvict(group)
	}
	m.evictionNotice(c, victim.Addr, victim.Dirty, dead, group)
}

// dropPrivate force-invalidates blockAddr from core c's private caches
// (back-invalidation or coherence invalidation) and returns whether any copy
// was dirty. It does NOT send an eviction notice — the caller owns the
// directory bookkeeping.
func (m *Machine) dropPrivate(c *coreState, blockAddr uint64) (wasPresent, wasDirty bool) {
	if b, ok := c.l1.Invalidate(blockAddr); ok {
		wasPresent = true
		wasDirty = wasDirty || b.Dirty
	}
	if b, ok := c.l2.Invalidate(blockAddr); ok {
		wasPresent = true
		wasDirty = wasDirty || b.Dirty
	}
	return wasPresent, wasDirty
}

// evictionNotice tells the home bank that core c no longer holds blockAddr
// (paper §III-A keeps the sparse directory precisely up-to-date). dirty
// carries writeback data; dead/group carry CHAR's inference for L2-origin
// notices.
func (m *Machine) evictionNotice(c *coreState, blockAddr uint64, dirty, dead bool, group uint8) {
	m.noticeCount++
	m.meter.Add(energy.DirUpdate, 1)
	if m.thresholders != nil {
		bank := m.llc.BankOf(blockAddr)
		if d, piggyback := m.thresholders[bank].OnNotice(c.id); piggyback {
			m.charEngines[c.id].SetD(d)
		}
		if m.cfg.CharResetInterval > 0 && m.noticeCount%m.cfg.CharResetInterval == 0 {
			for _, t := range m.thresholders {
				t.Reset()
			}
			for _, e := range m.charEngines {
				e.ResetD()
			}
		}
	}

	e, p := m.dir.Lookup(blockAddr)
	if e == nil {
		// The directory entry was already evicted (sparse-directory
		// conflict); the copies were back-invalidated then, so a late
		// notice cannot occur in this atomic model.
		panic(fmt.Sprintf("hierarchy: eviction notice for untracked block %#x", blockAddr))
	}
	e.Sharers.Clear(c.id)
	remaining := e.Sharers.Count()
	if remaining > 0 {
		// Shared blocks are clean under MESI; a dirty notice implies sole
		// ownership.
		if dirty {
			panic(fmt.Sprintf("hierarchy: dirty eviction notice for shared block %#x", blockAddr))
		}
		return
	}
	// Last private copy gone.
	if e.Relocated {
		// §III-C2: the relocated block's life ends; dirty data goes to the
		// memory controller.
		loc := e.Loc
		m.dir.Free(p)
		relocDirty := m.llc.InvalidateRelocated(loc)
		if dirty || relocDirty {
			m.memWriteback(c.id, blockAddr)
		}
		return
	}
	m.dir.Free(p)
	// A shared block is never CHAR-inferred dead (§III-D6); the sharing
	// check happened above (remaining == 0 path, but the block may have BEEN
	// shared — the group bit handles that upstream; here the last holder's
	// inference stands).
	if !m.llc.MarkNotInPrC(blockAddr, dirty, dead, group, c.id) {
		// Non-inclusive LLC already evicted the block: the writeback goes
		// straight to the memory controller rather than re-polluting the
		// LLC with a block the replacement policy chose to discard.
		if m.cfg.Mode == NonInclusive {
			if dirty {
				m.memWriteback(c.id, blockAddr)
			}
			return
		}
		panic(fmt.Sprintf("hierarchy: inclusive LLC missing block %#x on eviction notice", blockAddr))
	}
}

// memWriteback sends dirty data to a memory controller (off the critical
// path; only bank occupancy and energy are modeled).
func (m *Machine) memWriteback(coreID int, blockAddr uint64) {
	now := m.clock[coreID%len(m.clock)]
	m.mem.Access(blockAddr, true, now)
	m.meter.Add(energy.DRAMAccess, 1)
}
