package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryInstruments pins counter/gauge/histogram arithmetic and
// that a (name, labels) pair always resolves to the same instrument.
func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("jobs_total", "Jobs.", "outcome", "done")
	c.Inc()
	c.Add(2)
	if again := r.Counter("jobs_total", "Jobs.", "outcome", "done"); again != c {
		t.Fatal("same (name, labels) resolved to a different counter")
	}
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}

	g := r.Gauge("inflight", "In flight.")
	g.Add(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}

	h := r.Histogram("wall_seconds", "Wall.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("histogram sum = %g, want 56.05", got)
	}
}

// TestLabelOrderingDeterministic pins that label argument order does not
// create distinct series and that signatures render key-sorted.
func TestLabelOrderingDeterministic(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "M.", "b", "2", "a", "1")
	b := r.Counter("m", "M.", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order created two series for the same label set")
	}
	a.Inc()
	var buf strings.Builder
	if err := WriteExposition(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `m{a="1",b="2"} 1`) {
		t.Fatalf("labels not key-sorted in exposition:\n%s", buf.String())
	}
}

// TestExpositionGolden pins the full exposition rendering: family and
// series ordering, histogram expansion, escaping.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "Last family.").Add(2)
	r.Counter("aa_total", "First family.", "k", `va"l`).Inc()
	h := r.Histogram("hh_seconds", "Hist.", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(99)

	var buf strings.Builder
	if err := WriteExposition(&buf, r); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_total First family.
# TYPE aa_total counter
aa_total{k="va\"l"} 1
# HELP hh_seconds Hist.
# TYPE hh_seconds histogram
hh_seconds_bucket{le="0.5"} 1
hh_seconds_bucket{le="2"} 2
hh_seconds_bucket{le="+Inf"} 3
hh_seconds_sum 100.25
hh_seconds_count 3
# HELP zz_total Last family.
# TYPE zz_total counter
zz_total 2
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}

	families, samples, err := CheckExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("CheckExposition rejected our own exposition: %v", err)
	}
	if families != 3 || samples != 7 {
		t.Fatalf("CheckExposition = %d families, %d samples; want 3, 7", families, samples)
	}
}

// TestCheckExpositionRejects pins the validator's failure modes.
func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"no type":        "loose_sample 1\n",
		"bad type kind":  "# TYPE m woble\nm 1\n",
		"bad name":       "# TYPE 1m counter\n1m 1\n",
		"bad value":      "# TYPE m counter\nm x\n",
		"torn labels":    "# TYPE m counter\nm{a=\"1\" 1\n",
		"missing value":  "# TYPE m counter\nm\n",
		"duplicate type": "# TYPE m counter\n# TYPE m counter\nm 1\n",
	}
	for name, doc := range cases {
		if _, _, err := CheckExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: CheckExposition accepted %q", name, doc)
		}
	}
}

// TestRegistryConcurrent exercises instrument lookup and increments from
// many goroutines (meaningful under -race) and checks the totals.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n_total", "N.")
			h := r.Histogram("h_seconds", "H.", []float64{1})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total", "N.").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "H.", []float64{1}).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
