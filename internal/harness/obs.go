package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"zivsim/internal/obs"
	"zivsim/internal/telemetry"
)

// Every instrumented job keeps at most obsMaxIntervals sampled
// intervals and the last obsEvents simulator events.
const (
	obsMaxIntervals = 4096
	obsEvents       = 4096
)

// ObsOptions configures per-job observability artifacts.
type ObsOptions struct {
	// IntervalCycles is the sampling period in simulated cycles; 0 disables
	// the interval sampler (and the intervals CSV).
	IntervalCycles uint64
	// OutDir receives one artifact set per (config, mix) job:
	// <label>.trace.json, <label>.events.ndjson, <label>.intervals.csv.
	OutDir string
}

// artifactStem builds a filesystem-safe stem for a job's artifact files.
func artifactStem(cfgLabel, mixName string) string {
	s := cfgLabel + "-" + mixName
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// exportObs writes one job's observability artifacts under Obs.OutDir
// and returns the names of those it wrote, for the sweep manifest.
// Export errors never fail the run: they are reported to stderr and the
// simulation result stands.
func (r *runner) exportObs(j job, o *obs.Observer) []string {
	oo := r.opt.Obs
	if oo == nil || oo.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(oo.OutDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "obs: creating %s: %v\n", oo.OutDir, err)
		return nil
	}
	stem := filepath.Join(oo.OutDir, artifactStem(j.cfgLabel, j.mix.Name))
	label := j.cfgLabel + " / " + j.mix.Name
	var written []string
	if writeArtifact(stem+".trace.json", func(f *os.File) error {
		return obs.WriteChromeTrace(f, o, label)
	}) {
		written = append(written, artifactStem(j.cfgLabel, j.mix.Name)+".trace.json")
	}
	if o.Ring != nil {
		if writeArtifact(stem+".events.ndjson", func(f *os.File) error {
			return obs.WriteNDJSON(f, o)
		}) {
			written = append(written, artifactStem(j.cfgLabel, j.mix.Name)+".events.ndjson")
		}
	}
	if o.Config().IntervalCycles > 0 {
		if writeArtifact(stem+".intervals.csv", func(f *os.File) error {
			return obs.WriteIntervalCSV(f, o)
		}) {
			written = append(written, artifactStem(j.cfgLabel, j.mix.Name)+".intervals.csv")
		}
	}
	return written
}

// flushObsManifest rewrites <OutDir>/manifest.json from the sweep's job
// records, sorted by artifact stem. It runs at the end of every runAll —
// a drained sweep included — so partial artifact directories always
// carry an index of what was and was not produced. Obs sweeps never
// adopt from the store, so every job is done, failed or skipped.
func (r *runner) flushObsManifest() {
	oo := r.opt.Obs
	if oo == nil || oo.OutDir == "" {
		return
	}
	r.mu.Lock()
	m := obs.Manifest{Status: "complete"}
	for _, rec := range r.jobs {
		status := rec.outcome
		if status == telemetry.OutcomeDone {
			status = "completed"
		} else {
			m.Status = "partial"
		}
		m.Entries = append(m.Entries, obs.ManifestEntry{
			Label:     rec.j.cfgLabel + " / " + rec.j.mix.Name,
			Stem:      artifactStem(rec.j.cfgLabel, rec.j.mix.Name),
			Status:    status,
			Artifacts: rec.artifacts,
		})
	}
	if d := r.opt.Drain; d != nil && d.Requested() {
		m.Status = "partial"
	}
	r.mu.Unlock()
	sort.Slice(m.Entries, func(a, b int) bool {
		ea, eb := m.Entries[a], m.Entries[b]
		return ea.Stem < eb.Stem || ea.Stem == eb.Stem && ea.Label < eb.Label
	})
	if err := os.MkdirAll(oo.OutDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "obs: creating %s: %v\n", oo.OutDir, err)
		return
	}
	writeArtifact(filepath.Join(oo.OutDir, "manifest.json"), func(f *os.File) error {
		return obs.WriteManifest(f, m)
	})
}

// writeArtifact creates path and runs the writer, reporting any failure
// to stderr; it returns whether the artifact was written completely.
func writeArtifact(path string, write func(*os.File) error) bool {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return false
	}
	if err := write(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "obs: writing %s: %v\n", path, err)
		return false
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "obs: closing %s: %v\n", path, err)
		return false
	}
	return true
}
