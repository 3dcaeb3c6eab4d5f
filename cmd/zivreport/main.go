// Command zivreport converts the text output of `zivsim -fig ...` into
// GitHub-flavoured markdown tables, for pasting into EXPERIMENTS.md or
// issue reports, renders/validates the observability artifacts of
// `zivsim -obs-interval -obs-out`, summarizes a `zivsim -ledger` run
// ledger and validates a scraped /metrics exposition.
//
//	zivsim -fig all > results.txt
//	zivreport results.txt > results.md
//	zivreport -obs obsout/I-LRU-256KB-hetero.00.intervals.csv > intervals.md
//	zivreport -checktrace obsout        # validate every *.trace.json
//	zivreport -ledger run.ndjson        # summarize a telemetry run ledger
//	zivreport -checkmetrics metrics.prom # validate a scraped /metrics exposition
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	obsCSV := flag.String("obs", "", "render an intervals CSV (from zivsim -obs-interval) as markdown")
	checkPath := flag.String("checktrace", "", "validate Chrome trace JSON: a file, or a directory of *.trace.json")
	ledgerPath := flag.String("ledger", "", "summarize a telemetry run ledger (from zivsim -ledger) as markdown")
	metricsPath := flag.String("checkmetrics", "", "validate a Prometheus text exposition (scraped from zivsim /metrics)")
	flag.Parse()

	switch {
	case *ledgerPath != "":
		if err := ledgerReport(*ledgerPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "zivreport:", err)
			os.Exit(1)
		}
	case *metricsPath != "":
		if err := checkMetrics(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "zivreport:", err)
			os.Exit(1)
		}
	case *obsCSV != "":
		f, err := os.Open(*obsCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zivreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := obsReport(f, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "zivreport:", err)
			os.Exit(1)
		}
	case *checkPath != "":
		n, err := checkTraces(*checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zivreport:", err)
			os.Exit(1)
		}
		fmt.Printf("checktrace: %d trace(s) ok\n", n)
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: zivreport [-obs intervals.csv | -checktrace path | -ledger run.ndjson | -checkmetrics metrics.prom | results.txt]")
			os.Exit(2)
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "zivreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := convert(f, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "zivreport:", err)
			os.Exit(1)
		}
	}
}

// convert renders zivsim table output from r as markdown onto w. A table
// whose header does not split into one name per value column (Format runs
// names of 12 or more characters together) is kept verbatim in a fenced
// code block, so no value lands under another column's name.
func convert(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var table, notes []string // the open table's header and rows, as printed
	inTable := false
	flush := func() {
		if len(table) > 0 {
			writeTable(w, table)
			table = nil
		}
		if len(notes) > 0 {
			fmt.Fprintln(w)
			for _, n := range notes {
				fmt.Fprintf(w, "- %s\n", n)
			}
			notes = notes[:0]
		}
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			flush()
			title := strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==")
			fmt.Fprintf(w, "\n### %s\n\n", title)
			inTable = true
		case strings.HasPrefix(line, "note: "):
			notes = append(notes, strings.TrimPrefix(line, "note: "))
		case strings.HasPrefix(line, "("):
			inTable = false
			flush()
		case inTable && strings.TrimSpace(line) != "":
			table = append(table, line)
		}
	}
	flush()
	return sc.Err()
}

// writeTable renders a table's header line and rows as markdown. Each row
// must be a label (which may hold spaces) followed by exactly one number
// per header name; otherwise the lines go out verbatim in a code block.
func writeTable(w io.Writer, lines []string) {
	cols := strings.Fields(lines[0])
	for _, row := range lines[1:] {
		f := strings.Fields(row)
		if len(f) <= len(cols) || isNumber(f[len(f)-len(cols)-1]) {
			fmt.Fprintf(w, "```\n%s\n```\n", strings.Join(lines, "\n"))
			return
		}
	}
	fmt.Fprintf(w, "| %s | %s |\n", "configuration", strings.Join(cols, " | "))
	fmt.Fprintf(w, "|%s\n", strings.Repeat("---|", len(cols)+1))
	for _, row := range lines[1:] {
		f := strings.Fields(row)
		label := strings.Join(f[:len(f)-len(cols)], " ")
		fmt.Fprintf(w, "| %s | %s |\n", label, strings.Join(f[len(f)-len(cols):], " | "))
	}
}

func isNumber(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
