// Command zivlint is the project's static-analysis suite: eleven
// zivsim-specific analyzers over a shared CFG/dataflow framework that
// keep the simulator deterministic, its sidecar structures coherent,
// its hot paths allocation-free, its runtime invariant checks sound,
// and its concurrency (locks, goroutine joins, channel ownership,
// context cancellation) disciplined.
//
//	zivlint ./...                                  # analyze the module
//	zivlint -stats-gate zivlint.stats.json ./...   # the CI gate
//	zivlint -stats zivlint.stats.json ./...        # refresh the budget
//	zivlint -help                                  # list analyzers
//
// Findings print one per line to stdout, and any finding fails the run.
// Individual findings are waived in source with
// //ziv:ignore(analyzer) reason. Waivers that no longer suppress
// anything — or that name an analyzer outside the suite — are
// themselves reported under the unusedignore pseudo-analyzer, and
// -stats-gate fails the run when any analyzer's waiver count rises
// above the committed budget.
//
// Exit status is 0 when clean, 1 on any finding or a suppression rise,
// and 2 on usage or load errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"zivsim/internal/analysis/allocpure"
	"zivsim/internal/analysis/chandiscipline"
	"zivsim/internal/analysis/ctxflow"
	"zivsim/internal/analysis/detflow"
	"zivsim/internal/analysis/doccomment"
	"zivsim/internal/analysis/framework"
	"zivsim/internal/analysis/goleak"
	"zivsim/internal/analysis/lockguard"
	"zivsim/internal/analysis/nodeterminism"
	"zivsim/internal/analysis/sidecarsync"
	"zivsim/internal/analysis/statreset"
	"zivsim/internal/analysis/uncheckedinvariant"
)

var analyzers = []*framework.Analyzer{
	allocpure.Analyzer,
	chandiscipline.Analyzer,
	ctxflow.Analyzer,
	detflow.Analyzer,
	doccomment.Analyzer,
	goleak.Analyzer,
	lockguard.Analyzer,
	nodeterminism.Analyzer,
	sidecarsync.Analyzer,
	statreset.Analyzer,
	uncheckedinvariant.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("zivlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	statsPath := fs.String("stats", "",
		"write per-analyzer finding/suppression counts to this file")
	statsGate := fs.String("stats-gate", "",
		"fail when suppression counts rise above this committed stats file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: zivlint [flags] [packages]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-20s %s\n", a.Name, framework.FirstLine(a.Doc))
		}
	}

	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	res, err := framework.RunSuite(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "zivlint:", err)
		return 2
	}

	gateFailed := false
	if *statsPath != "" || *statsGate != "" {
		st := buildStats(res)
		if *statsPath != "" {
			if err := writeStats(*statsPath, st); err != nil {
				fmt.Fprintln(stderr, "zivlint:", err)
				return 2
			}
		}
		if *statsGate != "" {
			committed, err := loadStats(*statsGate)
			if err != nil {
				fmt.Fprintln(stderr, "zivlint:", err)
				return 2
			}
			if rose := gateStats(committed, st); len(rose) > 0 {
				for _, r := range rose {
					fmt.Fprintf(stderr, "zivlint: suppression count rose: %s\n", r)
				}
				fmt.Fprintf(stderr, "zivlint: new waivers must land with a regenerated %s (run with -stats %s)\n",
					*statsGate, *statsGate)
				gateFailed = true
			}
		}
	}

	for _, d := range res.Diags {
		fmt.Fprintln(stdout, d)
	}
	if len(res.Diags) > 0 || gateFailed {
		return 1
	}
	return 0
}
