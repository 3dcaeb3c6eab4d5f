package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestConvert(t *testing.T) {
	in := `== Fig. X — demo ==
                          256KB       512KB
I-LRU                    1.0000      1.1000
ZIV-LikelyDead           1.0100      1.2000
note: a range note
(figX in 1s)
`
	var out strings.Builder
	if err := convert(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"### Fig. X — demo",
		"| configuration | 256KB | 512KB |",
		"| I-LRU | 1.0000 | 1.1000 |",
		"| ZIV-LikelyDead | 1.0100 | 1.2000 |",
		"- a range note",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
}

func TestConvertEmpty(t *testing.T) {
	var out strings.Builder
	if err := convert(strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("empty input produced output: %q", out.String())
	}
}

func TestConvertMultipleTables(t *testing.T) {
	in := `== A ==
      c1
r1   1.0
(a in 1s)

== B ==
      c1      c2
r2   2.0     3.0
(b in 1s)
`
	var out strings.Builder
	if err := convert(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "### A") || !strings.Contains(got, "### B") {
		t.Fatalf("missing sections:\n%s", got)
	}
	if !strings.Contains(got, "| r2 | 2.0 | 3.0 |") {
		t.Fatalf("second table mis-parsed:\n%s", got)
	}
}

// TestConvertKeepsRunTogetherHeaderVerbatim converts the golden Fig. 18
// block, whose column names are too long for Format's 12-character
// columns and print with no space between them: the header cannot split
// into its three names, so the table must come out verbatim in a code
// block instead of with values under the wrong columns.
func TestConvertKeepsRunTogetherHeaderVerbatim(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", "golden_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "== Fig. 18 ")
	if start < 0 {
		t.Fatal("golden file has no Fig. 18 table")
	}
	block := text[start:]
	if end := strings.Index(block[1:], "\n== "); end >= 0 {
		block = block[:end+1]
	}
	header := strings.Split(block, "\n")[1]
	var out strings.Builder
	if err := convert(strings.NewReader(block), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "```\n"+header+"\n<=2^0 ") {
		t.Errorf("Fig. 18 not kept verbatim in a code block:\n%s", got)
	}
	if strings.Contains(got, "| <=2^") || strings.Contains(got, "| configuration |") {
		t.Errorf("Fig. 18 rendered as a markdown table with shifted values:\n%s", got)
	}
	if !strings.Contains(got, "- LikelyDead(LRU): fraction of intervals < 8 cycles") {
		t.Errorf("Fig. 18 notes missing:\n%s", got)
	}
}
