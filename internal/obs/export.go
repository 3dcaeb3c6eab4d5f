package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Exporters serialize an Observer's recorded state. Everything written
// here is derived from simulated-cycle-indexed records, so the output is
// byte-identical across runs of the same configuration; detflow treats
// arguments flowing into the Write* functions of this package as
// determinism sinks to keep it that way.

// traceEvent is one Chrome trace_event entry. Field order is fixed by
// the struct, and args maps are marshaled with sorted keys, so the JSON
// is deterministic.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Trace process IDs: cores live under pid 0, LLC banks under pid 1, and
// wall-clock sweep timelines (WriteTimeline) under pid 2.
const (
	tracePidCores = 0
	tracePidBanks = 1
	tracePidSweep = 2
)

// WriteChromeTrace emits the observer's intervals and events as Chrome
// trace_event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. The timebase is simulated cycles with 1 µs ≡ 1
// cycle: counter tracks come from the interval samples, instant events
// from the ring buffer. label names the trace (figure/mix).
func WriteChromeTrace(w io.Writer, o *Observer, label string) error {
	evs := make([]traceEvent, 0, 64)

	evs = append(evs,
		traceEvent{Name: "process_name", Ph: "M", Pid: tracePidCores,
			Args: map[string]any{"name": "cores"}},
		traceEvent{Name: "process_name", Ph: "M", Pid: tracePidBanks,
			Args: map[string]any{"name": "llc-banks"}},
	)
	for c := 0; c < o.Cores(); c++ {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M",
			Pid: tracePidCores, Tid: c,
			Args: map[string]any{"name": "core" + strconv.Itoa(c)}})
	}
	for b := 0; b < o.Banks(); b++ {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M",
			Pid: tracePidBanks, Tid: b,
			Args: map[string]any{"name": "bank" + strconv.Itoa(b)}})
	}

	for i := range o.CoreSamples() {
		s := &o.CoreSamples()[i]
		core := "core" + strconv.Itoa(s.Core)
		evs = append(evs,
			traceEvent{Name: core + " ipc", Ph: "C", Ts: s.EndCycle,
				Pid: tracePidCores, Tid: s.Core,
				Args: map[string]any{"ipc": s.IPC()}},
			traceEvent{Name: core + " llc-miss", Ph: "C", Ts: s.EndCycle,
				Pid: tracePidCores, Tid: s.Core,
				Args: map[string]any{"misses": s.LLCMisses}},
			traceEvent{Name: core + " inclusion-victims", Ph: "C", Ts: s.EndCycle,
				Pid: tracePidCores, Tid: s.Core,
				Args: map[string]any{"victims": s.InclVictims + s.DirVictims}},
		)
	}
	for i := range o.BankSamples() {
		s := &o.BankSamples()[i]
		// Bank samples carry no end cycle of their own; pair them with the
		// machine sample of the same interval for the timestamp.
		ms := o.MachineSamples()
		if s.Interval >= len(ms) {
			continue
		}
		evs = append(evs, traceEvent{
			Name: "bank" + strconv.Itoa(s.Bank) + " relocations-landed",
			Ph:   "C", Ts: ms[s.Interval].EndCycle,
			Pid: tracePidBanks, Tid: s.Bank,
			Args: map[string]any{"relocations": s.Relocations}})
	}

	if o.Ring != nil {
		for _, ev := range o.Ring.Events(nil) {
			te := traceEvent{Name: ev.Kind.String(), Ph: "i", Ts: ev.Cycle, S: "t",
				Args: map[string]any{
					"addr": "0x" + strconv.FormatUint(ev.Addr, 16),
					"arg":  ev.Arg,
				}}
			switch {
			case ev.Core >= 0:
				te.Pid, te.Tid = tracePidCores, int(ev.Core)
			case ev.Bank >= 0:
				te.Pid, te.Tid = tracePidBanks, int(ev.Bank)
			default:
				te.Pid, te.Tid = tracePidCores, 0
			}
			evs = append(evs, te)
		}
	}

	f := traceFile{
		TraceEvents:     evs,
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"label":    label,
			"timebase": "1us = 1 simulated cycle",
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// TimelineSpan is one complete ("X") span on a named track of a generic
// timeline (see WriteTimeline). Timestamps are microseconds since the
// timeline's own epoch; for the harness's sweep timelines that epoch is
// wall-clock sweep start, not simulated cycles.
type TimelineSpan struct {
	// Track names the Perfetto thread row the span renders on (the
	// harness uses one track per job key).
	Track string
	// Name is the span label ("queued", "running", ...).
	Name string
	// StartUS is the span start in microseconds since the timeline epoch.
	StartUS uint64
	// DurUS is the span duration in microseconds.
	DurUS uint64
	// Args carries optional annotations shown in the Perfetto detail pane.
	Args map[string]any
}

// WriteTimeline emits a generic span timeline as Chrome trace_event
// JSON under the dedicated sweep pid, loadable in Perfetto alongside
// (or independently of) the cycle-domain traces. Tracks become threads
// in first-appearance order and spans become complete ("X") events.
// label names the timeline in the trace metadata.
//
// Callers pass one span slice. The parameter is variadic only for
// compatibility with perfbench's older call, which passes a trailing
// nil where an instants slice used to be; it becomes a plain
// spans []TimelineSpan once that call drops the nil.
func WriteTimeline(w io.Writer, label string, groups ...[]TimelineSpan) error {
	var spans []TimelineSpan
	for _, g := range groups {
		spans = append(spans, g...)
	}
	tids := map[string]int{}
	var order []string
	tidOf := func(track string) int {
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(order)
		tids[track] = id
		order = append(order, track)
		return id
	}
	for _, s := range spans {
		tidOf(s.Track)
	}

	evs := make([]traceEvent, 0, len(spans)+len(order)+1)
	evs = append(evs, traceEvent{Name: "process_name", Ph: "M", Pid: tracePidSweep,
		Args: map[string]any{"name": "sweep"}})
	for id, track := range order {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M",
			Pid: tracePidSweep, Tid: id,
			Args: map[string]any{"name": track}})
	}
	for _, s := range spans {
		evs = append(evs, traceEvent{Name: s.Name, Ph: "X", Ts: s.StartUS, Dur: s.DurUS,
			Pid: tracePidSweep, Tid: tids[s.Track], Args: s.Args})
	}

	f := traceFile{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"label":    label,
			"timebase": "1us = 1 wall-clock microsecond since sweep start",
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// ndjsonEvent is the NDJSON serialization of one ring event.
type ndjsonEvent struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Core  int16  `json:"core"`
	Bank  int16  `json:"bank"`
	Addr  string `json:"addr"`
	Arg   uint64 `json:"arg"`
}

// WriteNDJSON dumps the ring buffer's live events one JSON object per
// line, oldest first.
func WriteNDJSON(w io.Writer, o *Observer) error {
	if o.Ring == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, ev := range o.Ring.Events(nil) {
		rec := ndjsonEvent{
			Cycle: ev.Cycle,
			Kind:  ev.Kind.String(),
			Core:  ev.Core,
			Bank:  ev.Bank,
			Addr:  "0x" + strconv.FormatUint(ev.Addr, 16),
			Arg:   ev.Arg,
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return nil
}

// IntervalCSVHeader is the single header shared by every row scope of
// the interval CSV. scope is core, machine, bank or depth; columns not
// meaningful for a scope are zero. Depth rows use interval -1: they are
// a whole-run histogram, not an interval series.
const IntervalCSVHeader = "scope,interval,id,start_cycle,end_cycle,refs,instructions,cycles,ipc," +
	"l1_miss,l2_miss,llc_miss,incl_victims,dir_incl_victims," +
	"relocations,cross_bank_relocations,alternate_victims,evictions,inprc_evictions," +
	"dir_evictions,dir_spills,dram_reads,dram_writes,dram_queue_depth"

// WriteIntervalCSV emits the interval samples and the relocation-depth
// histogram as a single flat CSV (see IntervalCSVHeader), the input of
// `zivreport -obs`.
func WriteIntervalCSV(w io.Writer, o *Observer) error {
	if _, err := io.WriteString(w, IntervalCSVHeader+"\n"); err != nil {
		return err
	}
	for i := range o.CoreSamples() {
		s := &o.CoreSamples()[i]
		_, err := fmt.Fprintf(w, "core,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,0,0,0,0,0,0,0,0,0,0\n",
			s.Interval, s.Core, s.StartCycle, s.EndCycle,
			s.Refs, s.Instructions, s.Cycles,
			strconv.FormatFloat(s.IPC(), 'f', 4, 64),
			s.L1Misses, s.L2Misses, s.LLCMisses, s.InclVictims, s.DirVictims)
		if err != nil {
			return err
		}
	}
	for i := range o.MachineSamples() {
		s := &o.MachineSamples()[i]
		_, err := fmt.Fprintf(w, "machine,%d,0,%d,%d,0,0,0,0,0,0,0,0,0,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Interval, s.StartCycle, s.EndCycle,
			s.Relocations, s.CrossBankRelocs, s.AlternateVictims,
			s.Evictions, s.InPrCEvictions, s.DirEvictions, s.DirSpills,
			s.DRAMReads, s.DRAMWrites, s.QueueDepth)
		if err != nil {
			return err
		}
	}
	for i := range o.BankSamples() {
		s := &o.BankSamples()[i]
		_, err := fmt.Fprintf(w, "bank,%d,%d,0,0,0,0,0,0,0,0,0,0,0,%d,0,0,0,0,0,0,0,0,0\n",
			s.Interval, s.Bank, s.Relocations)
		if err != nil {
			return err
		}
	}
	hist := o.DepthHist()
	for d := range hist {
		if hist[d] == 0 {
			continue
		}
		_, err := fmt.Fprintf(w, "depth,-1,%d,0,0,0,0,0,0,0,0,0,0,0,%d,0,0,0,0,0,0,0,0,0\n",
			d, hist[d])
		if err != nil {
			return err
		}
	}
	return nil
}
