package hierarchy

import (
	"zivsim/internal/cache"
	"zivsim/internal/energy"
	"zivsim/internal/policy"
)

// step issues the next reference of core c and advances its local clock.
func (m *Machine) step(c *coreState) {
	if m.ring != nil {
		// Stamp the event ring with the issuing core's clock so the
		// cycle-ignorant core and directory probe points record simulated
		// time.
		m.ring.SetNow(m.clock[c.id])
	}
	ref := c.gen.Next()
	pos := c.refIdx*uint64(m.cfg.Cores) + uint64(c.id)
	measured := !c.done && c.refIdx >= m.warmupRefs
	c.refIdx++

	blockAddr := cache.BlockAddr(ref.Addr)
	meta := policy.Meta{PC: ref.PC, Addr: blockAddr, Pos: pos}

	cycles := uint64(ref.Gap) + uint64(m.cfg.L1Latency)
	insts := uint64(ref.Gap) + 1
	var res accessResult

	m.meter.Add(energy.L1Access, 1)
	set := c.l1.SetIndex(blockAddr)
	if way, hit := c.l1.Access(blockAddr, ref.Write); hit {
		if ref.Write && !c.l1.Writable(set, way) {
			cycles += m.upgrade(c, blockAddr)
		}
		if measured {
			c.stats.L1Hits++
		}
	} else {
		if measured {
			c.stats.L1Misses++
		}
		cycles += m.accessL2(c, blockAddr, ref.Write, meta, &res)
		if measured {
			if res.l2Hit {
				c.stats.L2Hits++
			} else {
				c.stats.L2Misses++
				if res.llcHit {
					c.stats.LLCHits++
				}
				if res.llcMiss {
					c.stats.LLCMisses++
				}
				if res.mem {
					c.stats.MemAccesses++
				}
			}
		}
	}

	m.clock[c.id] += cycles
	if measured {
		c.stats.Refs++
		c.stats.Instructions += insts
		c.stats.Cycles += cycles
	}

	if m.cfg.DebugChecks && m.cfg.CheckEvery > 0 {
		m.checkCounter++
		if m.checkCounter >= m.cfg.CheckEvery {
			m.checkCounter = 0
			m.mustCheck()
		}
	}
}

// accessL2 serves an L1 miss from the private L2 or below and returns the
// added latency.
func (m *Machine) accessL2(c *coreState, blockAddr uint64, write bool, meta policy.Meta, res *accessResult) uint64 {
	lat := uint64(m.cfg.L2Latency)
	m.meter.Add(energy.L2Access, 1)
	set := c.l2.SetIndex(blockAddr)
	if way, hit := c.l2.Access(blockAddr, false); hit {
		res.l2Hit = true
		md := c.l2MetaAt(set, way)
		if md.demandReuses < 255 {
			md.demandReuses++
		}
		writable := c.l2.Writable(set, way)
		if write && !writable {
			lat += m.upgrade(c, blockAddr)
			writable = true
		}
		m.fillL1(c, blockAddr, write, writable)
		return lat
	}
	return lat + m.llcTransaction(c, blockAddr, write, meta, res)
}

// Run simulates until every core completes warmup+measure references. Early
// finishers keep running (restarting their streams implicitly — generators
// are infinite) so the LLC contention stays realistic, exactly as the paper
// describes its methodology; their statistics freeze at segment end.
//
// Global structure statistics (LLC, directory, DRAM, energy) are reset at
// the moment every core has passed its warmup so the reported totals cover
// the measured region.
func (m *Machine) Run() {
	target := m.warmupRefs + m.measuredRefs
	remaining := len(m.cores)
	// notWarm counts cores still inside warmup; a core leaves the count on
	// the step where its refIdx reaches warmupRefs, so the all-warm reset
	// fires at exactly the same step as a full rescan would find it.
	notWarm := 0
	if m.warmupRefs > 0 {
		notWarm = len(m.cores)
	}
	for remaining > 0 {
		// Min-cycle scheduling: the core furthest behind in time issues
		// next, so slow (miss-heavy) cores issue fewer references per unit
		// of global time.
		ci, now := m.earliest()
		c := &m.cores[ci]
		m.step(c)
		// now (the stepped core's pre-step clock) is the global simulated
		// time: sample when it crosses the next interval boundary.
		if m.obsv != nil && now >= m.obsv.NextSampleAt() {
			m.sampleInterval(now)
		}
		if !c.done && c.refIdx >= target {
			c.done = true
			remaining--
		}
		if notWarm > 0 && c.refIdx == m.warmupRefs {
			notWarm--
			if notWarm == 0 {
				m.resetGlobalStats()
			}
		}
	}
}

// earliest returns the core whose clock is furthest behind and that
// clock, the global simulated time. On equal clocks the lowest core index
// wins.
func (m *Machine) earliest() (ci int, now uint64) {
	now = m.clock[0]
	for i, cy := range m.clock {
		if cy < now {
			ci, now = i, cy
		}
	}
	return ci, now
}

// resetGlobalStats clears the shared-structure counters at the end of
// warmup.
func (m *Machine) resetGlobalStats() {
	m.llc.Stats.Reset()
	m.dir.Stats.Reset()
	m.mem.Stats.Reset()
	m.meter = energy.NewMeter(energy.DefaultTable())
	m.CoherenceInvals = 0
	if m.obsv != nil {
		m.rebaseObs()
	}
}

// mustCheck validates every invariant (tests only).
func (m *Machine) mustCheck() {
	if err := m.llc.CheckInvariants(); err != nil {
		panic(err)
	}
	if err := m.CheckInclusion(); err != nil {
		panic(err)
	}
}
