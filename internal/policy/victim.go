package policy

// Victim implements Policy: the way with the smallest timestamp, ties
// broken by lowest way index — identical to Rank's stable ascending sort.
func (p *LRU) Victim(set int) int {
	stamp := p.stamp[set*p.ways : (set+1)*p.ways]
	best, bestStamp := 0, stamp[0]
	for w := 1; w < len(stamp); w++ {
		if s := stamp[w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// Victim implements Policy: the first unreferenced way, or way 0 when
// every way is referenced — identical to Rank's two-class order.
func (p *NRU) Victim(set int) int {
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if !p.ref[base+w] {
			return w
		}
	}
	return 0
}

// Victim implements Policy. The canonical SRRIP aging step is applied
// exactly as Rank does (the side effect must happen regardless of which
// entry point picks the victim); afterwards the first way at the
// distant-future RRPV is the victim, matching Rank's stable descending
// sort.
func (p *SRRIP) Victim(set int) int {
	for w, r := range p.age(set) {
		if r == srripMaxRRPV {
			return w
		}
	}
	return 0 // unreachable: aging guarantees a max-RRPV way
}

// Victim implements Policy: the first way holding the set's maximum
// RRPV — identical to Rank's stable descending sort.
func (p *Hawkeye) Victim(set int) int {
	rrpv := p.rrpv[set*p.ways : (set+1)*p.ways]
	best, bestRRPV := 0, rrpv[0]
	for w := 1; w < len(rrpv); w++ {
		if r := rrpv[w]; r > bestRRPV {
			best, bestRRPV = w, r
		}
	}
	return best
}

// Victim implements Policy: the valid way whose next use is furthest in
// the future (invalid ways query as most-imminent, exactly like Rank).
func (p *MIN) Victim(set int) int {
	base := set * p.ways
	best := 0
	var bestNU uint64
	for w := 0; w < p.ways; w++ {
		i := base + w
		var nu uint64
		if p.valid[i] {
			nu = p.oracle.NextUse(p.addr[i], p.now)
		}
		if w == 0 || nu > bestNU {
			best, bestNU = w, nu
		}
	}
	return best
}
