package workload

import (
	"testing"

	"zivsim/internal/trace"
)

func testParams() Params {
	return Params{L2Bytes: 64 << 10, LLCShareBytes: 128 << 10, BaseL2Bytes: 32 << 10}
}

func TestThirtySixApps(t *testing.T) {
	if got := len(Apps()); got != 36 {
		t.Fatalf("app count = %d, want 36 (paper's SPEC CPU 2017 count)", got)
	}
	seen := map[string]bool{}
	for _, a := range Apps() {
		if seen[a.Name] {
			t.Errorf("duplicate app name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Build == nil {
			t.Errorf("app %q has no builder", a.Name)
		}
	}
	if len(AppNames()) != 36 {
		t.Error("AppNames length mismatch")
	}
}

func TestAppByName(t *testing.T) {
	a, ok := AppByName("circ.llc.a")
	if !ok || a.Name != "circ.llc.a" {
		t.Fatal("AppByName failed for known app")
	}
	if _, ok := AppByName("nonexistent"); ok {
		t.Fatal("AppByName found a nonexistent app")
	}
}

func TestAllAppsGenerate(t *testing.T) {
	p := testParams()
	for _, a := range Apps() {
		g := a.Build(1<<40, 7, p)
		for i := 0; i < 200; i++ {
			r := g.Next()
			if r.Addr < 1<<40 {
				t.Fatalf("app %q emitted address %#x below its base", a.Name, r.Addr)
			}
		}
		g.Reset()
		first := g.Next()
		g.Reset()
		if g.Next() != first {
			t.Fatalf("app %q not resettable", a.Name)
		}
	}
}

func TestHomogeneousMixes(t *testing.T) {
	mixes := HomogeneousMixes(8)
	if len(mixes) != 36 {
		t.Fatalf("homogeneous mixes = %d, want 36", len(mixes))
	}
	for _, m := range mixes {
		if len(m.Apps) != 8 {
			t.Fatalf("mix %q has %d apps", m.Name, len(m.Apps))
		}
		for _, a := range m.Apps {
			if a != m.Apps[0] {
				t.Fatalf("mix %q is not homogeneous", m.Name)
			}
		}
	}
}

func TestHeterogeneousMixesEqualRepresentation(t *testing.T) {
	mixes := HeterogeneousMixes(8, 36, 12345)
	if len(mixes) != 36 {
		t.Fatalf("mixes = %d, want 36", len(mixes))
	}
	counts := map[string]int{}
	for _, m := range mixes {
		if len(m.Apps) != 8 {
			t.Fatalf("mix %q has %d apps", m.Name, len(m.Apps))
		}
		seen := map[string]bool{}
		for _, a := range m.Apps {
			if seen[a] {
				t.Fatalf("mix %q repeats app %q", m.Name, a)
			}
			seen[a] = true
			counts[a]++
		}
	}
	// 36 mixes x 8 slots / 36 apps = 8 appearances each; the distinctness
	// constraint can skew this slightly, so allow 6-10.
	for name, c := range counts {
		if c < 6 || c > 10 {
			t.Errorf("app %q appears %d times, want ~8", name, c)
		}
	}
}

func TestHeterogeneousMixesDeterministic(t *testing.T) {
	a := HeterogeneousMixes(8, 5, 42)
	b := HeterogeneousMixes(8, 5, 42)
	for i := range a {
		for j := range a[i].Apps {
			if a[i].Apps[j] != b[i].Apps[j] {
				t.Fatal("same-seed mixes differ")
			}
		}
	}
}

// TestHeterogeneousMixesNoneForManyCores pins that asking for no mixes
// draws nothing, so a machine with more cores than apps can still ask.
func TestHeterogeneousMixesNoneForManyCores(t *testing.T) {
	if mixes := HeterogeneousMixes(64, 0, 1); len(mixes) != 0 {
		t.Fatalf("HeterogeneousMixes(64, 0, 1) = %d mixes, want 0", len(mixes))
	}
}

func TestBuildMixDisjointAddressSpaces(t *testing.T) {
	p := testParams()
	mix := Mix{Name: "t", Apps: []string{"stream.a", "rand.a", "hot.fit.a"}}
	gens := BuildMix(mix, p, 1)
	if len(gens) != 3 {
		t.Fatal("wrong generator count")
	}
	// The page translation interleaves frames, so disjointness is checked at
	// block granularity: no physical block may be touched by two apps.
	owner := map[uint64]int{}
	for i, g := range gens {
		for j := 0; j < 2000; j++ {
			b := g.Next().Addr / 64
			if prev, ok := owner[b]; ok && prev != i {
				t.Fatalf("apps %d and %d share physical block %#x", prev, i, b)
			}
			owner[b] = i
		}
	}
}

func TestBuildMixUnknownAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BuildMix with unknown app did not panic")
		}
	}()
	BuildMix(Mix{Name: "bad", Apps: []string{"nope"}}, testParams(), 1)
}

func TestMTWorkloads(t *testing.T) {
	ws := MTWorkloads()
	if len(ws) != 5 {
		t.Fatalf("MT workloads = %d, want 5", len(ws))
	}
	want := map[string]bool{"canneal": true, "facesim": true, "vips": true, "applu": true, "tpce": true}
	for _, w := range ws {
		if !want[w.Name] {
			t.Errorf("unexpected MT workload %q", w.Name)
		}
		gens := w.Build(4, testParams(), 3)
		if len(gens) != 4 {
			t.Fatalf("%q built %d generators for 4 threads", w.Name, len(gens))
		}
		for _, g := range gens {
			for i := 0; i < 100; i++ {
				g.Next()
			}
		}
	}
	if _, ok := MTByName("tpce"); !ok {
		t.Error("MTByName(tpce) failed")
	}
	if _, ok := MTByName("zzz"); ok {
		t.Error("MTByName found nonexistent workload")
	}
	if len(MTNames()) != 5 {
		t.Error("MTNames length mismatch")
	}
}

func TestMTSharingAcrossThreads(t *testing.T) {
	w, _ := MTByName("applu")
	gens := w.Build(4, testParams(), 9)
	touched := make([]map[uint64]bool, len(gens))
	for tid, g := range gens {
		touched[tid] = map[uint64]bool{}
		for i := 0; i < 3000; i++ {
			touched[tid][g.Next().Addr/64] = true
		}
	}
	shared := 0
	for a := range touched[0] {
		if touched[1][a] || touched[2][a] || touched[3][a] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("applu threads share no blocks")
	}
}

func TestCanonicalStreamWithMix(t *testing.T) {
	p := testParams()
	mix := Mix{Name: "t", Apps: []string{"stream.a", "circ.llc.a"}}
	gens := BuildMix(mix, p, 1)
	s := trace.CanonicalStream(gens, 100)
	if len(s) != 200 {
		t.Fatalf("stream length = %d", len(s))
	}
}
