package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// cacheTestOptions is a minimal single-job configuration for disk-cache
// tests.
func cacheTestOptions(dir string) Options {
	o := DefaultOptions()
	o.Scale = 64
	o.Cores = 2
	o.HeteroMixes = 0
	o.HomoMixes = 1
	o.Warmup = 500
	o.Measure = 2000
	o.Parallelism = 1
	o.CacheDir = dir
	return o
}

// cacheTestJob returns the single test job, its store key filled in as
// runAll fills it.
func cacheTestJob(o Options) job {
	j := mixJob(o, baselineSpec(), o.mixes()[0])
	j.dk = newRunner(o).diskKey(j)
	return j
}

// runCacheJob executes the single test job on a fresh runner and returns
// its result.
func runCacheJob(t *testing.T, opt Options) Result {
	t.Helper()
	r := newRunner(opt)
	j := cacheTestJob(opt)
	r.runAll([]job{j})
	return r.get(j.cfgLabel, j.mix.Name)
}

// cacheFile returns the single entry the test job stores.
func cacheFile(t *testing.T, opt Options) string {
	t.Helper()
	j := cacheTestJob(opt)
	return filepath.Join(opt.CacheDir, j.dk+".json")
}

func TestDiskCacheRoundTrip(t *testing.T) {
	opt := cacheTestOptions(t.TempDir())
	want := runCacheJob(t, opt)

	path := cacheFile(t, opt)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no cache entry written: %v", err)
	}

	j := cacheTestJob(opt)
	got, ok := newRunner(opt).diskLoad(j.dk)
	if !ok {
		t.Fatal("diskLoad missed a freshly stored entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached result differs from computed result")
	}
}

// TestDiskCacheTruncatedEntry: a torn/truncated entry must fall through
// to a recompute with the correct result, never an error.
func TestDiskCacheTruncatedEntry(t *testing.T) {
	opt := cacheTestOptions(t.TempDir())
	want := runCacheJob(t, opt)

	path := cacheFile(t, opt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	j := cacheTestJob(opt)
	if _, ok := newRunner(opt).diskLoad(j.dk); ok {
		t.Fatal("diskLoad accepted a truncated entry")
	}
	got := runCacheJob(t, opt) // recompute + re-store
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed result differs after truncated-entry miss")
	}
	if fresh, err := os.ReadFile(path); err != nil || len(fresh) != len(data) {
		t.Fatalf("recompute did not restore the entry (err %v, %d bytes, want %d)", err, len(fresh), len(data))
	}
}

// TestDiskCacheVersionMismatch: an entry from another simulator revision
// must be ignored.
func TestDiskCacheVersionMismatch(t *testing.T) {
	opt := cacheTestOptions(t.TempDir())
	want := runCacheJob(t, opt)

	path := cacheFile(t, opt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c cachedResult
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	c.Version = "zivsim-results-v0-ancient"
	stale, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	j := cacheTestJob(opt)
	if _, ok := newRunner(opt).diskLoad(j.dk); ok {
		t.Fatal("diskLoad accepted a version-mismatched entry")
	}
	if got := runCacheJob(t, opt); !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed result differs after version-mismatch miss")
	}
}

// TestDiskCacheBadKey: an entry filed under the wrong (non-key) name is
// invisible to lookups — the job recomputes and stores under the correct
// SHA-256 key.
func TestDiskCacheBadKey(t *testing.T) {
	opt := cacheTestOptions(t.TempDir())
	seed := cacheTestOptions(t.TempDir())
	want := runCacheJob(t, seed)

	// Plant the (valid) entry under a garbage key in the empty cache dir.
	data, err := os.ReadFile(cacheFile(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(opt.CacheDir, strings.Repeat("ab", 32)+".json")
	if err := os.WriteFile(bogus, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j := cacheTestJob(opt)
	if _, ok := newRunner(opt).diskLoad(j.dk); ok {
		t.Fatal("diskLoad found an entry despite the wrong key")
	}
	if got := runCacheJob(t, opt); !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed result differs with a mis-keyed cache")
	}
	if _, err := os.Stat(cacheFile(t, opt)); err != nil {
		t.Fatalf("recompute did not store under the correct key: %v", err)
	}
}

// assertNoTempResidue fails if the cache directory holds anything besides
// finished .json entries — diskStore's temp files must always be renamed
// into place or removed.
func assertNoTempResidue(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		} else if !strings.HasSuffix(e.Name(), ".json") {
			t.Errorf("unexpected file in cache dir: %s", e.Name())
		}
	}
}

// TestDiskStoreAtomicNoTempResidue: the write path goes through a temp
// file + rename; a completed store must leave exactly the entry and no
// temp residue.
func TestDiskStoreAtomicNoTempResidue(t *testing.T) {
	opt := cacheTestOptions(t.TempDir())
	runCacheJob(t, opt)
	assertNoTempResidue(t, opt.CacheDir)
	ents, err := os.ReadDir(opt.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("cache dir holds %d files, want exactly the one entry", len(ents))
	}
}

// TestDiskStoreConcurrentWritersNeverTear hammers one entry with parallel
// writers while readers continuously load it: because every store is a
// rename of a fully written temp file, a reader must only ever observe a
// complete, correct entry — never a partial write.
func TestDiskStoreConcurrentWritersNeverTear(t *testing.T) {
	opt := cacheTestOptions(t.TempDir())
	want := runCacheJob(t, opt)
	r := newRunner(opt)
	j := cacheTestJob(opt)

	stop := make(chan struct{})
	errc := make(chan error, 1)
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := r.diskLoad(j.dk); ok && !reflect.DeepEqual(got, want) {
					select {
					case errc <- fmt.Errorf("reader observed a torn or wrong entry"):
					default:
					}
					return
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				r.diskStore(j, want, false)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	assertNoTempResidue(t, opt.CacheDir)
	got, ok := r.diskLoad(j.dk)
	if !ok {
		t.Fatal("entry missing after concurrent stores")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("entry differs after concurrent stores")
	}
}
