package main

import (
	"bytes"
	"strings"
	"testing"

	"zivsim/internal/obs"
)

// sampleObserver produces a tiny populated observer for exporter input.
func sampleObserver() *obs.Observer {
	o := obs.New(2, 1, obs.Config{IntervalCycles: 100, MaxIntervals: 8, EventCapacity: 8})
	o.Ring.SetNow(42)
	o.Ring.Record(obs.EvRelocBegin, -1, 0, 0x2000, 2)
	cores := []obs.CoreSnap{
		{Refs: 10, Instructions: 40, Cycles: 100, LLCMisses: 2},
		{Refs: 12, Instructions: 55, Cycles: 100, LLCMisses: 1},
	}
	o.Sample(100, cores, []uint64{3}, obs.MachineSnap{Relocations: 3, Evictions: 5, QueueDepth: 1})
	o.OnRelocation(1)
	o.OnRelocation(1)
	o.OnRelocation(200) // saturates into the 15+ bucket
	return o
}

func TestObsReport(t *testing.T) {
	var csv bytes.Buffer
	if err := obs.WriteIntervalCSV(&csv, sampleObserver()); err != nil {
		t.Fatal(err)
	}
	var md bytes.Buffer
	if err := obsReport(&csv, &md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{
		"### Machine intervals",
		"### Per-core IPC",
		"### Relocation-depth histogram",
		"| 0 | 0-100 | 3 |", // machine interval 0, relocations 3
		"core0 | core1 |",   // IPC matrix header
		"0.4000 | 0.5500 |", // per-core IPC values
		"| 1 | 2 | ##",      // depth 1 seen twice, full-width bar
		"| 15+ | 1 | #",     // saturated bucket labeled 15+
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestObsReportRejectsForeignCSV(t *testing.T) {
	if err := obsReport(strings.NewReader("a,b,c\n1,2,3\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("header mismatch not rejected")
	}
}

func TestCheckTrace(t *testing.T) {
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, sampleObserver(), "test"); err != nil {
		t.Fatal(err)
	}
	if err := checkTrace(trace.Bytes()); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	for name, doc := range map[string]string{
		"empty":      `{"traceEvents":[]}`,
		"bad phase":  `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":0,"tid":0}]}`,
		"no name":    `{"traceEvents":[{"ph":"C","ts":1,"pid":0,"tid":0}]}`,
		"no ts":      `{"traceEvents":[{"name":"x","ph":"C","pid":0,"tid":0}]}`,
		"no pid":     `{"traceEvents":[{"name":"x","ph":"C","ts":1,"tid":0}]}`,
		"string pid": `{"traceEvents":[{"name":"x","ph":"C","ts":1,"pid":"a","tid":0}]}`,
		"not json":   `{`,
	} {
		if err := checkTrace([]byte(doc)); err == nil {
			t.Errorf("%s: invalid trace accepted", name)
		}
	}

	// Metadata events carry no ts and must pass.
	meta := `{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0}]}`
	if err := checkTrace([]byte(meta)); err != nil {
		t.Errorf("metadata event rejected: %v", err)
	}
}
