package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIPC(t *testing.T) {
	c := CoreStats{Instructions: 100, Cycles: 50}
	if c.IPC() != 2.0 {
		t.Errorf("IPC = %v", c.IPC())
	}
	if (CoreStats{}).IPC() != 0 {
		t.Error("zero-cycle IPC should be 0")
	}
}

func TestSum(t *testing.T) {
	a := CoreStats{Instructions: 1, Cycles: 2, L1Hits: 3, InclusionVictims: 4}
	a.Sum(CoreStats{Instructions: 10, Cycles: 20, L1Hits: 30, InclusionVictims: 40})
	if a.Instructions != 11 || a.Cycles != 22 || a.L1Hits != 33 || a.InclusionVictims != 44 {
		t.Errorf("Sum result: %+v", a)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	base := []CoreStats{{Instructions: 100, Cycles: 100}, {Instructions: 100, Cycles: 200}}
	cfg := []CoreStats{{Instructions: 100, Cycles: 50}, {Instructions: 100, Cycles: 200}}
	// Core 0: 2x, core 1: 1x -> mean 1.5.
	if got := WeightedSpeedup(cfg, base); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("WeightedSpeedup = %v, want 1.5", got)
	}
}

func TestWeightedSpeedupPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	WeightedSpeedup([]CoreStats{{}}, []CoreStats{{}, {}})
}

func TestThroughput(t *testing.T) {
	cores := []CoreStats{
		{Instructions: 100, Cycles: 100},
		{Instructions: 300, Cycles: 200},
	}
	if got := Throughput(cores); got != 2.0 {
		t.Errorf("Throughput = %v, want 2.0 (400 insts / 200 max cycles)", got)
	}
	if Throughput(nil) != 0 {
		t.Error("empty Throughput should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{0, -1}) != 0 {
		t.Error("degenerate GeoMean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Error("empty MinMax should be 0,0")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(1, 0) != 0 {
		t.Error("Ratio misbehaved")
	}
}

func TestCDF(t *testing.T) {
	got := CDF([]uint64{1, 1, 2})
	want := []float64{0.25, 0.5, 1.0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF = %v, want %v", got, want)
		}
	}
	empty := CDF([]uint64{0, 0})
	if empty[0] != 0 || empty[1] != 0 {
		t.Error("empty CDF should be zeros")
	}
}

// Property: CDF is monotone non-decreasing and ends at 1 for non-empty
// histograms.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(hist []uint64) bool {
		for i := range hist {
			hist[i] %= 1000
		}
		c := CDF(hist)
		var total uint64
		for _, h := range hist {
			total += h
		}
		prev := 0.0
		for _, v := range c {
			if v < prev {
				return false
			}
			prev = v
		}
		if total > 0 && len(c) > 0 && math.Abs(c[len(c)-1]-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
