// Ledger reporting: `zivreport -ledger` summarizes a telemetry run
// ledger (written by `zivsim -ledger`) as markdown — outcome counts,
// wall-time percentiles, cache-hit rate and the fault breakdown —
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

// ledgerReport renders the ledger at path as a markdown summary on w.
func ledgerReport(path string, w io.Writer) error {
	hdr, recs, err := telemetry.ReadLedger(path)
	if err != nil {
		return err
	}

	byOutcome := map[string]int{}
	errCounts := map[string]int{}
	var doneDurUS []int64
	var simulated int
	var totalRefs uint64
	var totalDurUS int64
	for _, rec := range recs {
		byOutcome[rec.Outcome]++
		if rec.Type == telemetry.SimAttemptEnd {
			simulated++
			totalDurUS += rec.DurUS
		}
		switch rec.Outcome {
		case telemetry.OutcomeFailed:
			errCounts[rec.Err]++
		case telemetry.OutcomeDone:
			doneDurUS = append(doneDurUS, rec.DurUS)
			totalRefs += rec.Refs
		}
	}
	terminal := 0
	for _, oc := range telemetry.TerminalOutcomes {
		terminal += byOutcome[oc]
	}

	fmt.Fprintf(w, "### Run ledger %s\n\n", path)
	fmt.Fprintf(w, "- format: %s", hdr.Version)
	if hdr.Options != "" {
		fmt.Fprintf(w, ", options %.12s…", hdr.Options)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "- jobs: %d terminal, %d simulated\n", terminal, simulated)
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
	for _, oc := range telemetry.TerminalOutcomes {
		fmt.Fprintf(w, "| %s | %d |\n", oc, byOutcome[oc])
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
		errs := make([]string, 0, len(errCounts))
		for e := range errCounts {
			errs = append(errs, e)
		}
		sort.Slice(errs, func(i, j int) bool {
			if ni, nj := errCounts[errs[i]], errCounts[errs[j]]; ni != nj {
				return ni > nj
			}
			return errs[i] < errs[j]
		})
		fmt.Fprintf(w, "\n| fault | failed jobs |\n|---|---|\n")
		for _, e := range errs {
			fmt.Fprintf(w, "| %s | %d |\n", e, errCounts[e])
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
