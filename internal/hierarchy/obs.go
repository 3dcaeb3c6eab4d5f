package hierarchy

import "zivsim/internal/obs"

// SetObserver attaches (or, with nil, detaches) the observability layer.
// Attachment fans the event ring out to the LLC and directory probe
// points and allocates the snapshot scratch the interval sampler reuses
// every tick, so the sampling path itself allocates nothing. Call before
// Run; mid-run attachment would start the interval clock at an arbitrary
// boundary.
func (m *Machine) SetObserver(o *obs.Observer) {
	m.obsv = o
	if o == nil {
		m.ring = nil
		m.llc.SetObserver(nil)
		m.dir.SetObserver(nil)
		return
	}
	m.ring = o.Ring
	m.obsCoreSnap = make([]obs.CoreSnap, len(m.cores))
	m.obsBankReloc = make([]uint64, m.cfg.LLCBanks)
	m.llc.SetObserver(o.Ring)
	m.dir.SetObserver(o.Ring)
}

// Observer returns the attached observability layer, nil when detached.
func (m *Machine) Observer() *obs.Observer { return m.obsv }

// gatherObs fills the snapshot scratch with the current cumulative
// counters and returns the machine-wide snapshot. now feeds the
// instantaneous DRAM queue-depth probe.
//
//ziv:noalloc
func (m *Machine) gatherObs(now uint64) obs.MachineSnap {
	for i := range m.cores {
		c := &m.cores[i]
		s := &m.obsCoreSnap[i]
		s.Refs = c.stats.Refs
		s.Instructions = c.stats.Instructions
		s.Cycles = c.stats.Cycles
		s.L1Misses = c.stats.L1Misses
		s.L2Misses = c.stats.L2Misses
		s.LLCMisses = c.stats.LLCMisses
		s.InclVictims = c.stats.InclusionVictims
		s.DirVictims = c.stats.DirInclusionVictims
	}
	m.llc.RelocationsLandedByBank(m.obsBankReloc)
	ls := &m.llc.Stats
	ds := &m.dir.Stats
	ms := &m.mem.Stats
	return obs.MachineSnap{
		Relocations:      ls.Relocations,
		CrossBankRelocs:  ls.CrossBankRelocations,
		AlternateVictims: ls.AlternateVictims,
		Evictions:        ls.Evictions,
		InPrCEvictions:   ls.InPrCEvictions,
		DirEvictions:     ds.Evictions,
		DirSpills:        ds.Spills,
		DRAMReads:        ms.Reads,
		DRAMWrites:       ms.Writes,
		QueueDepth:       uint64(m.mem.QueueDepth(now)),
	}
}

// sampleInterval closes the current observation interval at global cycle
// now (the minimum core clock, from earliest).
//
//ziv:noalloc
func (m *Machine) sampleInterval(now uint64) {
	m.obsv.Sample(now, m.obsCoreSnap, m.obsBankReloc, m.gatherObs(now))
}

// rebaseObs restarts observation at the end of warmup, right after
// resetGlobalStats cleared the shared-structure counters: the cleared
// counters baseline at zero, while counters that deliberately survive the
// reset (per-core measured stats, the per-set relocation-landing counts)
// baseline at their current cumulative values. The observer therefore
// covers exactly the measured region, like every Stats struct.
func (m *Machine) rebaseObs() {
	_, now := m.earliest()
	m.obsv.Rebase(now, m.obsCoreSnap, m.obsBankReloc, m.gatherObs(now))
}
