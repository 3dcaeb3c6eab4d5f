package hierarchy

import (
	"fmt"

	"zivsim/internal/core"
	"zivsim/internal/directory"
	"zivsim/internal/energy"
	"zivsim/internal/obs"
	"zivsim/internal/policy"
)

// accessResult flags what a memory access did below the L1.
type accessResult struct {
	l2Hit   bool
	llcHit  bool // includes relocated-block hits
	llcMiss bool
	mem     bool
}

// inMeasured reports whether core id is inside its measured segment.
func (m *Machine) inMeasured(id int) bool {
	c := &m.cores[id]
	return !c.done && c.refIdx >= m.warmupRefs
}

// downgradePrivate clears write permission (and collects dirty data) from
// core id's copies of blockAddr, for a read by another core.
func (m *Machine) downgradePrivate(id int, blockAddr uint64) (wasDirty bool) {
	c := &m.cores[id]
	if w, hit := c.l1.Lookup(blockAddr); hit && c.l1.Downgrade(c.l1.SetIndex(blockAddr), w) {
		wasDirty = true
	}
	if w, hit := c.l2.Lookup(blockAddr); hit && c.l2.Downgrade(c.l2.SetIndex(blockAddr), w) {
		wasDirty = true
	}
	return wasDirty
}

// setWritable grants write permission on core id's copies of blockAddr.
func (m *Machine) setWritable(id int, blockAddr uint64) {
	c := &m.cores[id]
	if w, hit := c.l1.Lookup(blockAddr); hit {
		c.l1.SetWritable(c.l1.SetIndex(blockAddr), w)
	}
	if w, hit := c.l2.Lookup(blockAddr); hit {
		c.l2.SetWritable(c.l2.SetIndex(blockAddr), w)
	}
}

// joinSharers updates the directory entry for an access by core c, running
// the MESI actions: writes invalidate other sharers (coherence
// invalidations, not inclusion victims); reads downgrade an exclusive owner
// and merge its dirty data into the LLC copy. It returns whether core c's
// new copy is writable.
func (m *Machine) joinSharers(c *coreState, e *directory.Entry, write bool, blockAddr uint64) (writable bool) {
	if write {
		e.Sharers.ForEach(func(other int) {
			if other == c.id {
				return
			}
			present, dirty := m.dropPrivate(&m.cores[other], blockAddr)
			if present {
				m.CoherenceInvals++
			}
			if dirty {
				m.mergeDirty(e, blockAddr)
			}
		})
		e.Sharers = directory.Sharers{}
		e.Sharers.Set(c.id)
		e.State = directory.Modified
		return true
	}
	if (e.State == directory.Modified || e.State == directory.Exclusive) && e.Sharers.Count() == 1 {
		owner := e.Sharers.Only()
		if owner != c.id {
			if m.ring != nil {
				m.ring.Record(obs.EvCohDowngrade, int16(owner), int16(m.llc.BankOf(blockAddr)), blockAddr, 0)
			}
			if m.downgradePrivate(owner, blockAddr) {
				m.mergeDirty(e, blockAddr)
			}
		}
	}
	e.Sharers.Set(c.id)
	if e.Sharers.Count() > 1 {
		e.State = directory.Shared
	}
	return e.Sharers.Count() == 1 && e.State != directory.Shared
}

// mergeDirty folds a private dirty copy's data into the block's LLC copy
// (relocated or not); if the LLC no longer holds it (non-inclusive), the
// data goes to memory.
func (m *Machine) mergeDirty(e *directory.Entry, blockAddr uint64) {
	if e.Relocated {
		m.llc.MarkDirtyAt(e.Loc)
		return
	}
	if !m.llc.MarkDirty(blockAddr) {
		if m.cfg.Mode == Inclusive {
			panic(fmt.Sprintf("hierarchy: inclusive LLC missing block %#x on dirty merge", blockAddr))
		}
		m.memWriteback(0, blockAddr)
	}
}

// upgrade obtains write permission for core c's resident copy of blockAddr
// (a store to a non-writable private line) and returns the added latency.
func (m *Machine) upgrade(c *coreState, blockAddr uint64) uint64 {
	bank := m.llc.BankOf(blockAddr)
	lat := m.mesh.RoundTrip(c.id, bank) + uint64(m.cfg.LLCTagLat)
	m.meter.Add(energy.MeshHop, uint64(2*m.mesh.Hops(c.id, bank)))
	m.meter.Add(energy.DirLookup, 1)
	e, _ := m.dir.Lookup(blockAddr)
	if e == nil {
		panic(fmt.Sprintf("hierarchy: upgrade for untracked block %#x", blockAddr))
	}
	m.joinSharers(c, e, true, blockAddr)
	m.setWritable(c.id, blockAddr)
	return lat
}

// allocateDir allocates the directory entry for core id's new copy of
// blockAddr and processes the entry it displaced, if any.
func (m *Machine) allocateDir(id int, blockAddr uint64, st directory.State) {
	_, victim, spilled := m.dir.Allocate(blockAddr, id, st)
	switch {
	case victim == nil:
	case spilled:
		m.handleDirSpill(victim)
	default:
		m.handleDirEviction(victim)
	}
}

// backInvalidate force-invalidates the private copies of blockAddr held by
// every core in sharers, and returns whether any copy was dirty. Each core
// that held a copy suffers an inclusion victim: it is counted when the core
// is inside its measured segment, as directory-induced (Fig. 15) when
// dirInduced is set, and recorded as a back-invalidation event whose arg is
// 1 for a directory-induced one and 0 for an LLC eviction's.
func (m *Machine) backInvalidate(sharers *directory.Sharers, blockAddr uint64, dirInduced bool) (anyDirty bool) {
	arg := uint64(0)
	if dirInduced {
		arg = 1
	}
	sharers.ForEach(func(id int) {
		present, dirty := m.dropPrivate(&m.cores[id], blockAddr)
		anyDirty = anyDirty || dirty
		if !present {
			return
		}
		if m.inMeasured(id) {
			if dirInduced {
				m.cores[id].stats.DirInclusionVictims++
			} else {
				m.cores[id].stats.InclusionVictims++
			}
		}
		if m.ring != nil {
			m.ring.Record(obs.EvBackInval, int16(id), int16(m.llc.BankOf(blockAddr)), blockAddr, arg)
		}
	})
	return anyDirty
}

// handleDirSpill retargets a relocated block's tag-encoded directory
// pointer after ZeroDEV moved its entry into the overflow structure.
func (m *Machine) handleDirSpill(spilled *directory.Entry) {
	if spilled.Relocated {
		m.llc.SetDirPtr(spilled.Loc, m.dir.OverflowPtr(spilled.Addr))
	}
}

// handleDirEviction processes a sparse-directory conflict victim: every
// private copy of the tracked block is force-invalidated (these are
// directory-induced inclusion victims, the effect Fig. 15 studies), and a
// relocated block loses its only locator and dies with it (§III-F).
func (m *Machine) handleDirEviction(ev *directory.Entry) {
	anyDirty := m.backInvalidate(&ev.Sharers, ev.Addr, true)
	if ev.Relocated {
		relocDirty := m.llc.InvalidateRelocated(ev.Loc)
		if anyDirty || relocDirty {
			m.memWriteback(0, ev.Addr)
		}
		return
	}
	if !m.llc.MarkNotInPrC(ev.Addr, anyDirty, false, 0, -1) {
		if m.cfg.Mode == Inclusive {
			panic(fmt.Sprintf("hierarchy: inclusive LLC missing block %#x on directory eviction", ev.Addr))
		}
		if anyDirty {
			m.memWriteback(0, ev.Addr)
		}
	}
}

// handleFillOutcome processes what an LLC fill evicted and/or relocated:
// dirty victims write back to memory; privately cached victims of an
// inclusive LLC are back-invalidated, generating inclusion victims — the
// event the ZIV design eliminates.
func (m *Machine) handleFillOutcome(requester int, out *core.FillOutcome) {
	if out.Relocation.Valid {
		m.meter.Add(energy.Relocation, 1)
		m.meter.Add(energy.DirUpdate, 1)
		if out.Relocation.CrossBank {
			m.meter.Add(energy.MeshHop, 2)
		}
		if m.obsv != nil {
			m.obsv.OnRelocation(out.Relocation.Depth)
		}
	}
	ev := &out.Evicted
	if !ev.Valid {
		return
	}
	if ev.InPrC && m.cfg.Mode == Inclusive {
		anyDirty := ev.Dirty
		if e, p, ok := m.dir.Find(ev.Addr); ok {
			if m.backInvalidate(&e.Sharers, ev.Addr, false) {
				anyDirty = true
			}
			m.dir.Free(p)
		}
		if anyDirty {
			m.memWriteback(requester, ev.Addr)
		}
		return
	}
	// Non-inclusive mode (or a victim with no private copies): no
	// back-invalidation; the directory keeps tracking private copies.
	if ev.Dirty {
		m.memWriteback(requester, ev.Addr)
	}
}

// llcTransaction performs the shared-LLC part of a miss from core c's
// private hierarchy: parallel LLC + sparse-directory lookup, MESI actions,
// the fill flow with victim handling, and private-cache fills. It returns
// the latency charged to the core.
func (m *Machine) llcTransaction(c *coreState, blockAddr uint64, write bool, meta policy.Meta, res *accessResult) uint64 {
	bank := m.llc.BankOf(blockAddr)
	hops := m.mesh.Hops(c.id, bank)
	lat := m.mesh.RoundTrip(c.id, bank) + uint64(m.cfg.LLCTagLat)
	m.meter.Add(energy.MeshHop, uint64(2*hops))
	m.meter.Add(energy.LLCTagLookup, 1)
	m.meter.Add(energy.DirLookup, 1)

	// CHAR recall attribution must read the block's state before the access
	// clears it (§III-D6).
	if m.charEngines != nil {
		if loc, hit := m.llc.Probe(blockAddr); hit {
			if b := m.llc.BlockAt(loc); b.NotInPrC && b.EvictCore >= 0 {
				m.charEngines[b.EvictCore].OnRecall(b.CharGroup)
			}
		}
	}

	e, _ := m.dir.Lookup(blockAddr)

	if _, hit := m.llc.Access(blockAddr, meta); hit {
		lat += uint64(m.cfg.LLCDataLat)
		m.meter.Add(energy.LLCDataRead, 1)
		res.llcHit = true
		writable := write
		if e == nil {
			st := directory.Exclusive
			if write {
				st = directory.Modified
			}
			m.allocateDir(c.id, blockAddr, st)
			writable = true
		} else {
			writable = m.joinSharers(c, e, write, blockAddr)
		}
		m.fillL2(c, blockAddr, false, writable, l2Meta{llcHit: true})
		m.fillL1(c, blockAddr, write, writable)
		return lat
	}

	if e != nil {
		if e.Relocated {
			// Inclusive ZIV: the block lives in a relocation set, reached
			// through the directory with a small latency delta (§III-C1).
			lat += uint64(m.cfg.LLCDataLat + m.cfg.RelocAccessDelta)
			m.meter.Add(energy.LLCDataRead, 1)
			m.llc.AccessRelocated(e.Loc, meta)
			res.llcHit = true
			writable := m.joinSharers(c, e, write, blockAddr)
			m.fillL2(c, blockAddr, false, writable, l2Meta{llcHit: true})
			m.fillL1(c, blockAddr, write, writable)
			return lat
		}
		if m.cfg.Mode == Inclusive {
			panic(fmt.Sprintf("hierarchy: inclusion violated — directory hit, LLC miss for %#x", blockAddr))
		}
		// The non-inclusive "fourth case": a sharer core supplies the data
		// (cache-to-cache), and the block is re-allocated in the LLC.
		res.llcMiss = true
		var owner = -1
		e.Sharers.ForEach(func(id int) {
			if owner < 0 && id != c.id {
				owner = id
			}
		})
		if owner < 0 {
			panic(fmt.Sprintf("hierarchy: fourth-case block %#x with no remote sharer", blockAddr))
		}
		lat += m.mesh.RoundTrip(owner, bank) + uint64(m.cfg.L2Latency)
		m.meter.Add(energy.MeshHop, uint64(2*m.mesh.Hops(owner, bank)))
		m.meter.Add(energy.L2Access, 1)
		writable := m.joinSharers(c, e, write, blockAddr)
		out := m.llc.Fill(blockAddr, c.id, false, true, meta, m.clock[c.id])
		m.meter.Add(energy.LLCDataWrite, 1)
		m.handleFillOutcome(c.id, out)
		m.fillL2(c, blockAddr, false, writable, l2Meta{llcHit: false})
		m.fillL1(c, blockAddr, write, writable)
		return lat
	}

	// Full miss: fetch from memory, allocate directory entry then LLC block
	// (Fig. 5 order), then fill the private caches.
	res.llcMiss = true
	res.mem = true
	dramLat := m.mem.Access(blockAddr, false, m.clock[c.id])
	m.meter.Add(energy.DRAMAccess, 1)
	lat += uint64(float64(dramLat) * m.cfg.MLPOverlap)
	st := directory.Exclusive
	if write {
		st = directory.Modified
	}
	m.allocateDir(c.id, blockAddr, st)
	out := m.llc.Fill(blockAddr, c.id, false, true, meta, m.clock[c.id])
	m.meter.Add(energy.LLCDataWrite, 1)
	m.handleFillOutcome(c.id, out)
	m.fillL2(c, blockAddr, false, true, l2Meta{llcHit: false})
	m.fillL1(c, blockAddr, write, true)
	return lat
}
