// Ledger reporting: `zivreport -ledger` summarizes a telemetry run
// ledger (written by `zivsim -ledger`) as markdown — outcome counts,
// wall-time percentiles, cache-hit rate and the retry/fault breakdown —
// and `zivreport -checkmetrics` validates a scraped /metrics exposition
// the way CI's telemetry-smoke job does.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"zivsim/internal/telemetry"
)

// terminalLedgerOutcomes are the per-job outcomes in report order; every
// job contributes exactly one (retry records are per-attempt extras).
var terminalLedgerOutcomes = []string{
	telemetry.OutcomeDone,
	telemetry.OutcomeCacheHit,
	telemetry.OutcomeFailed,
	telemetry.OutcomeSkipped,
}

// ledgerReport renders the ledger at path as a markdown summary on w.
func ledgerReport(path string, w io.Writer) error {
	hdr, recs, err := telemetry.ReadLedger(path)
	if err != nil {
		return err
	}

	byOutcome := map[string]int{}
	errCounts := map[string]int{}
	var doneDurUS []int64
	var attempts, retries int
	var totalRefs uint64
	var totalDurUS int64
	for _, rec := range recs {
		byOutcome[rec.Outcome]++
		if rec.Attempt > 0 {
			attempts++
			totalDurUS += rec.DurUS
		}
		switch rec.Outcome {
		case telemetry.OutcomeRetry:
			retries++
			errCounts[rec.Err]++
		case telemetry.OutcomeFailed:
			errCounts[rec.Err]++
		case telemetry.OutcomeDone:
			doneDurUS = append(doneDurUS, rec.DurUS)
			totalRefs += rec.Refs
		}
	}
	terminal := 0
	for _, oc := range terminalLedgerOutcomes {
		terminal += byOutcome[oc]
	}

	fmt.Fprintf(w, "### Run ledger %s\n\n", path)
	fmt.Fprintf(w, "- format: %s", hdr.Version)
	if hdr.Options != "" {
		fmt.Fprintf(w, ", options %.12s…", hdr.Options)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "- jobs: %d terminal, %d attempts (%d retried)\n", terminal, attempts, retries)
	if terminal > 0 {
		adopted := byOutcome[telemetry.OutcomeCacheHit]
		fmt.Fprintf(w, "- cache-hit rate: %.1f%% (%d of %d served without running)\n",
			100*float64(adopted)/float64(terminal), adopted, terminal)
	}
	if totalRefs > 0 && totalDurUS > 0 {
		fmt.Fprintf(w, "- simulated: %d refs in %v busy time (%.2fM refs/s aggregate)\n",
			totalRefs, (time.Duration(totalDurUS) * time.Microsecond).Round(time.Millisecond),
			float64(totalRefs)/(float64(totalDurUS)/1e6)/1e6)
	}

	fmt.Fprintf(w, "\n| outcome | jobs |\n|---|---|\n")
	for _, oc := range terminalLedgerOutcomes {
		fmt.Fprintf(w, "| %s | %d |\n", oc, byOutcome[oc])
	}
	if retries > 0 {
		fmt.Fprintf(w, "| (retry attempts) | %d |\n", retries)
	}

	if len(doneDurUS) > 0 {
		sort.Slice(doneDurUS, func(i, j int) bool { return doneDurUS[i] < doneDurUS[j] })
		fmt.Fprintf(w, "\n| job wall time | |\n|---|---|\n")
		for _, p := range []int{50, 90, 99} {
			fmt.Fprintf(w, "| p%d | %v |\n", p, usString(percentileUS(doneDurUS, p)))
		}
		fmt.Fprintf(w, "| max | %v |\n", usString(doneDurUS[len(doneDurUS)-1]))
	}

	if len(errCounts) > 0 {
		type ec struct {
			err string
			n   int
		}
		ecs := make([]ec, 0, len(errCounts))
		for e, n := range errCounts {
			ecs = append(ecs, ec{e, n})
		}
		sort.Slice(ecs, func(i, j int) bool {
			if ecs[i].n != ecs[j].n {
				return ecs[i].n > ecs[j].n
			}
			return ecs[i].err < ecs[j].err
		})
		fmt.Fprintf(w, "\n| fault | failed attempts |\n|---|---|\n")
		for _, e := range ecs {
			fmt.Fprintf(w, "| %s | %d |\n", e.err, e.n)
		}
	}
	return nil
}

// percentileUS returns the p-th percentile (nearest-rank) of sorted
// microsecond samples.
func percentileUS(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// usString renders microseconds as a rounded duration.
func usString(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.String()
}

// checkMetrics validates the Prometheus text exposition at path and
// prints a one-line summary.
func checkMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	families, samples, err := telemetry.CheckExposition(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	fmt.Printf("checkmetrics: %d families, %d samples ok\n", families, samples)
	return nil
}
