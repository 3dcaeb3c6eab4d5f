// Package noc models the on-chip 2D mesh interconnect latency between core
// tiles and LLC bank tiles. The paper's Table I specifies a 2D mesh with 1 ns
// routing delay per hop and 0.5 ns link latency at a 4 GHz core clock; this
// package converts tile distances into CPU-cycle latencies.
package noc

// Config describes the mesh.
type Config struct {
	Cores      int
	Banks      int
	RoutingNS  float64 // per-hop router traversal
	LinkNS     float64 // per-hop link traversal
	CPUFreqGHz float64
}

// DefaultConfig returns the paper's mesh parameters for the given tile
// counts.
func DefaultConfig(cores, banks int) Config {
	return Config{Cores: cores, Banks: banks, RoutingNS: 1.0, LinkNS: 0.5, CPUFreqGHz: 4.0}
}

// Mesh precomputes core-to-bank hop distances on a near-square tile grid.
// Cores and banks are interleaved across the grid in row-major order, which
// approximates the tiled CMP floorplans the paper's class of studies use.
type Mesh struct {
	hops      [][]int // [core][bank]
	hopCycles uint64
}

// New lays out the mesh and precomputes distances.
func New(cfg Config) *Mesh {
	tiles := cfg.Cores + cfg.Banks
	cols := 1
	for cols*cols < tiles {
		cols++
	}
	pos := func(tile int) (int, int) { return tile / cols, tile % cols }
	m := &Mesh{hops: make([][]int, cfg.Cores)}
	// Interleave: even tiles are cores (while available), odd are banks.
	corePos := make([]int, 0, cfg.Cores)
	bankPos := make([]int, 0, cfg.Banks)
	for t := 0; t < tiles; t++ {
		if t%2 == 0 && len(corePos) < cfg.Cores || len(bankPos) >= cfg.Banks {
			corePos = append(corePos, t)
		} else {
			bankPos = append(bankPos, t)
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		m.hops[c] = make([]int, cfg.Banks)
		cr, cc := pos(corePos[c])
		for b := 0; b < cfg.Banks; b++ {
			br, bc := pos(bankPos[b])
			d := abs(cr-br) + abs(cc-bc)
			if d == 0 {
				d = 1 // local hop into the bank controller
			}
			m.hops[c][b] = d
		}
	}
	perHopNS := cfg.RoutingNS + cfg.LinkNS
	m.hopCycles = uint64(perHopNS*cfg.CPUFreqGHz + 0.5)
	return m
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Hops returns the hop count from core to bank.
func (m *Mesh) Hops(core, bank int) int { return m.hops[core][bank] }

// OneWay returns the one-way latency in CPU cycles from core to bank.
func (m *Mesh) OneWay(core, bank int) uint64 {
	return uint64(m.hops[core][bank]) * m.hopCycles
}

// RoundTrip returns the round-trip latency in CPU cycles between core and
// bank.
func (m *Mesh) RoundTrip(core, bank int) uint64 { return 2 * m.OneWay(core, bank) }
