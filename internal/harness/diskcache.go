// Persistent result store. Every simulation is a pure function of
// (simulator version, options, machine config, workload mix), so its Result
// can be reused across processes: with Options.CacheDir set (cmd/zivsim
// -store) every finished job is stored under its content-derived key, and
// a rerun over the same directory adopts every job already stored. That
// is what makes iterating on figure output free and what resumes an
// interrupted or partly failed sweep: a drained or failed job was never
// stored, so exactly it reruns.
//
// The key hashes the full deterministic input set. Fields that cannot
// change results — Parallelism, CacheDir itself — are normalized out, so a
// parallel run and a serial run share entries. cacheVersion must be bumped
// whenever a change alters simulation output (new statistics, model fixes);
// the golden-determinism tests in golden_test.go are the guard that detects
// such changes.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"zivsim/internal/harness/store"
	"zivsim/internal/hierarchy"
	"zivsim/internal/workload"
)

// cacheVersion stamps every cache key with the simulator's behavioral
// revision. Bump it whenever simulation output changes for identical
// options (model fixes, new counters feeding tables, trace changes).
const cacheVersion = "zivsim-results-v1"

// cacheKeyInput is the serialized identity of one simulation.
type cacheKeyInput struct {
	Version  string
	Options  Options // normalized: Parallelism and CacheDir zeroed
	CfgLabel string
	Config   hierarchy.Config
	Mix      workload.Mix
	BaseL2   int
}

// diskKey returns the content-derived store key for a job.
func (r *runner) diskKey(j job) string {
	return contentHash(cacheKeyInput{
		Version:  cacheVersion,
		Options:  r.opt.normalized(),
		CfgLabel: j.cfgLabel,
		Config:   j.cfg,
		Mix:      j.mix,
		BaseL2:   j.baseL2,
	})
}

// contentHash returns the SHA-256 (hex) of v's JSON encoding: the
// content address of every identity the harness hands out (store keys,
// job IDs, ledger stamps). The identities are plain data, so an encoding
// failure is a bug.
func contentHash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("harness: content hash marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// cachedResult is the stored envelope. Key material is stored alongside
// the payload so `ls` + `cat` can identify entries and stale files from
// older versions are self-describing.
type cachedResult struct {
	Version  string
	CfgLabel string
	Mix      string
	Result   Result
}

// diskLoad returns the stored Result under key, if present and valid.
// Unreadable or mismatched entries are treated as misses.
func (r *runner) diskLoad(key string) (Result, bool) {
	data, ok := store.Dir(r.opt.CacheDir).Get(key)
	if !ok {
		return Result{}, false
	}
	var c cachedResult
	if err := json.Unmarshal(data, &c); err != nil || c.Version != cacheVersion {
		return Result{}, false
	}
	return c.Result, true
}

// diskStore persists a job's Result under its key (j.dk). Failures are
// silent by design: an unusable store just disables persistence. corrupt
// stores the first half of the envelope instead — the "corrupt:"
// FaultSpec directive's torn entry, which the read path must treat as a
// miss and recompute.
func (r *runner) diskStore(j job, res Result, corrupt bool) {
	data, err := json.MarshalIndent(cachedResult{
		Version:  cacheVersion,
		CfgLabel: j.cfgLabel,
		Mix:      j.mix.Name,
		Result:   res,
	}, "", "\t")
	if err != nil {
		return
	}
	if corrupt {
		data = data[:len(data)/2]
	}
	// Put errors mean the store is unusable; the result stands anyway.
	_ = store.Dir(r.opt.CacheDir).Put(j.dk, data)
}
