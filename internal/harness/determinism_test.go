package harness

import (
	"reflect"
	"testing"

	"zivsim/internal/hierarchy"
)

// smallOptions is a fast configuration for scheduling/caching tests.
func smallOptions() Options {
	o := DefaultOptions()
	o.Scale = 32
	o.HeteroMixes = 1
	o.HomoMixes = 1
	o.Warmup = 1_000
	o.Measure = 4_000
	o.TPCECores = 8
	return o
}

// TestParallelismDoesNotAffectResults runs the same experiment serially and
// with maximum parallelism and requires identical tables: simulations are
// independent, so worker count and completion order must never leak into
// results.
func TestParallelismDoesNotAffectResults(t *testing.T) {
	serial := smallOptions()
	serial.Parallelism = 1
	tabSerial, _ := runFig(t, "fig8", serial)

	parallel := smallOptions()
	parallel.Parallelism = 8
	tabParallel, _ := runFig(t, "fig8", parallel)

	if !reflect.DeepEqual(tabSerial, tabParallel) {
		t.Errorf("tables differ between Parallelism=1 and Parallelism=8:\nserial:\n%s\nparallel:\n%s",
			tabSerial.Format(), tabParallel.Format())
	}
}

// TestDiskCacheHitMatchesColdRun populates the disk cache with a cold
// sweep and requires a second sweep, served from the cache, to render
// byte-identical output, for a multi-programmed and a multi-threaded
// figure.
func TestDiskCacheHitMatchesColdRun(t *testing.T) {
	for _, id := range []string{"fig1", "fig17"} {
		t.Run(id, func(t *testing.T) {
			o := smallOptions()
			o.CacheDir = t.TempDir()

			refsBefore := SimulatedRefs()
			cold, _ := figTable(t, id, o)
			if SimulatedRefs() == refsBefore {
				t.Fatal("cold run simulated nothing")
			}

			refsBefore = SimulatedRefs()
			warm, _ := figTable(t, id, o)
			if warm != cold {
				t.Errorf("cache-served run differs from cold run:\ncold:\n%s\nwarm:\n%s", cold, warm)
			}
			if simulated := SimulatedRefs() - refsBefore; simulated != 0 {
				t.Errorf("warm run simulated %d refs; expected every job to come from the disk cache", simulated)
			}
		})
	}
}

// TestDiskCacheKeyDistinguishesOptions ensures result-affecting option
// changes miss the cache while result-neutral ones (Parallelism) hit it.
func TestDiskCacheKeyDistinguishesOptions(t *testing.T) {
	o := smallOptions()
	o.CacheDir = t.TempDir()
	r := newRunner(o)
	j := jobForTest(o)

	base := r.diskKey(j)

	seeded := o
	seeded.Seed++
	if k := (&runner{opt: seeded}).diskKey(j); k == base {
		t.Error("changing Seed did not change the cache key")
	}
	longer := o
	longer.Measure *= 2
	if k := (&runner{opt: longer}).diskKey(j); k == base {
		t.Error("changing Measure did not change the cache key")
	}
	par := o
	par.Parallelism = 7
	if k := (&runner{opt: par}).diskKey(j); k != base {
		t.Error("Parallelism changed the cache key; it cannot affect results")
	}
	elsewhere := o
	elsewhere.CacheDir = "/somewhere/else"
	if k := (&runner{opt: elsewhere}).diskKey(j); k != base {
		t.Error("CacheDir changed the cache key; it cannot affect results")
	}
	relabeled := j
	relabeled.cfgLabel += "x"
	if k := r.diskKey(relabeled); k == base {
		t.Error("changing the config label did not change the cache key")
	}
}

// jobForTest builds a representative job from an options value.
func jobForTest(o Options) job {
	mixes := o.mixes()
	return job{cfgLabel: "test-cfg", cfg: hierarchy.DefaultConfig(o.Cores, 256<<10, o.Scale), mix: mixes[0], baseL2: 256 << 10}
}
