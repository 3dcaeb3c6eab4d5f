// Sweep manifest. Observability artifacts are written one set per job as
// jobs complete, so an interrupted or partially failed sweep leaves a
// directory whose contents are hard to interpret on their own: which jobs
// produced artifacts, which failed, which never ran? The manifest is the
// flush point for that partial state — the harness rewrites
// <OutDir>/manifest.json at the end of every sweep (including a drained
// one), so the artifact directory is always self-describing.
package obs

import (
	"encoding/json"
	"io"
)

// ManifestEntry records one job's observability outcome.
type ManifestEntry struct {
	// Label is the human-readable job identity, "cfgLabel / mixName".
	Label string `json:"label"`
	// Stem is the filesystem-safe artifact file stem shared by the job's
	// trace/NDJSON/CSV files.
	Stem string `json:"stem"`
	// Status is "completed", "failed" (the job's simulation panicked) or
	// "skipped" (a drain stopped the sweep before the job ran).
	Status string `json:"status"`
	// Artifacts lists the artifact filenames written for the job; empty
	// for failed and skipped jobs.
	Artifacts []string `json:"artifacts,omitempty"`
}

// Manifest indexes the artifact sets a sweep produced.
type Manifest struct {
	// Status is "complete" when every job produced its artifacts and
	// "partial" when any job failed, was skipped, or the sweep drained.
	Status string `json:"status"`
	// Entries lists per-job outcomes sorted by stem.
	Entries []ManifestEntry `json:"entries"`
}

// WriteManifest writes the manifest as indented JSON.
func WriteManifest(w io.Writer, m Manifest) error {
	if m.Entries == nil {
		m.Entries = []ManifestEntry{} // a jobless manifest is [], not null
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(m)
}
