// Package telemetry is the sweep engine's wall-clock observability layer:
// a zero-dependency metrics registry with a Prometheus text exposition,
// per-job lifecycle spans rendered through the obs trace_event writer,
// and an append-only NDJSON run ledger. It is the operational complement
// of internal/obs — obs records the simulated-cycle domain and is
// byte-identical across runs; telemetry records the wall-clock domain
// (how long jobs took, what was retried, what the cache served) and is
// therefore kept strictly out of simulation results. Every clock is
// injected (pass time.Now from package main), so the whole layer is
// deterministic under test, and the golden-figure invariance tests pin
// that attaching it never changes simulation output.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates a family's instrument type in the registry
// and names the Prometheus TYPE in the exposition.
type metricKind string

// The three instrument kinds of the registry, matching the Prometheus
// exposition TYPE names.
const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Counter is a monotonically increasing metric. The hot-path increments
// are plain atomics so instrumented code paths stay allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//ziv:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//ziv:noalloc
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (e.g. in-flight jobs).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrement).
//
//ziv:noalloc
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; observations above the last bound land only in the
// implicit +Inf bucket. Counts are stored per bucket (non-cumulative)
// and accumulated at exposition time.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
//
//ziv:noalloc
func (h *Histogram) Observe(v float64) {
	for i := 0; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one labeled instrument of a family. Exactly one of c/g/h is
// non-nil, matching the family kind.
type series struct {
	labels string // rendered, key-sorted label signature ("" for none)
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name: its kind, help text and every label
// combination seen so far.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram families only
	series  map[string]*series
}

// Registry holds metric families and hands out their instruments.
// Instrument lookup takes the registry lock; the returned Counter/Gauge/
// Histogram pointers are lock-free, so callers on hot paths fetch the
// instrument once and increment the cached pointer.
type Registry struct {
	mu sync.Mutex
	//ziv:guards(mu)
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSignature renders "k=v" pairs as a deterministic, key-sorted
// Prometheus label block (`{a="x",b="y"}`), independent of argument
// order. Pairs must come in even (key, value, ...) sequence.
func labelSignature(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("telemetry: odd label key/value list")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes for label
// values: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns (creating on first use) the series of a family,
// enforcing a consistent kind/help per name.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels []string) *series {
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, buckets: buckets,
			series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s, requested as %s", name, fam.kind, kind))
	}
	s := fam.series[sig]
	if s == nil {
		s = &series{labels: sig}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{bounds: append([]float64(nil), fam.buckets...),
				counts: make([]atomic.Uint64, len(fam.buckets))}
		}
		fam.series[sig] = s
	}
	return s
}

// Counter returns the counter for name with the given (key, value, ...)
// labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge for name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// Histogram returns the histogram for name with the given upper-bound
// buckets (ascending) and labels. The bucket layout is fixed by the
// first registration of the name.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not ascending", name))
		}
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).h
}

// formatValue renders a sample value the way the exposition format
// expects: shortest round-trip float representation.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteExposition renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label signature, histograms expanded into cumulative _bucket/_sum/
// _count samples. The output is deterministic for a given registry
// state, which the round-trip tests rely on.
func WriteExposition(w io.Writer, r *Registry) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, fam := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, fam.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.kind)
		sigs := make([]string, 0, len(fam.series))
		for sig := range fam.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := fam.series[sig]
			switch fam.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", fam.name, sig, formatValue(float64(s.c.Value())))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", fam.name, sig, formatValue(float64(s.g.Value())))
			case kindHistogram:
				writeHistogram(&b, fam.name, sig, s.h)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram expands one histogram series into its cumulative
// bucket, sum and count samples.
func writeHistogram(b *strings.Builder, name, sig string, h *Histogram) {
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketSig(sig, formatValue(ub)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketSig(sig, "+Inf"), h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", name, sig, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, sig, h.Count())
}

// bucketSig merges the le="bound" label into an existing (possibly
// empty) label signature.
func bucketSig(sig, bound string) string {
	le := `le="` + bound + `"`
	if sig == "" {
		return "{" + le + "}"
	}
	return strings.TrimSuffix(sig, "}") + "," + le + "}"
}
