package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"zivsim/internal/harness"
)

// TestModelFlags checks the flag-to-Options mapping: -paper swaps the
// base the model flags apply to, and never drops a flag the user set.
func TestModelFlags(t *testing.T) {
	with := func(o harness.Options, edit func(*harness.Options)) harness.Options {
		edit(&o)
		return o
	}
	for _, c := range []struct {
		args []string
		want harness.Options
	}{
		{nil, harness.DefaultOptions()},
		{[]string{"-paper"}, harness.PaperOptions()},
		{[]string{"-seed", "7"}, with(harness.DefaultOptions(), func(o *harness.Options) { o.Seed = 7 })},
		{[]string{"-paper", "-seed", "7"}, with(harness.PaperOptions(), func(o *harness.Options) { o.Seed = 7 })},
		{[]string{"-scale", "16", "-paper", "-refs", "1000", "-tpce-cores", "4"},
			with(harness.PaperOptions(), func(o *harness.Options) { o.Scale, o.Measure, o.TPCECores = 16, 1000, 4 })},
	} {
		fs := flag.NewFlagSet("zivsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		options := modelFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		if got := options(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: options = %+v, want %+v", c.args, got, c.want)
		}
	}
}

// TestPrintConfigSizes checks that -config prints every cache in the
// largest unit that divides it exactly, so the scaled-down machines the
// smoke runs use never print a cache as zero.
func TestPrintConfigSizes(t *testing.T) {
	for _, c := range []struct {
		cores, scale int
		want         []string
	}{
		{8, 32, []string{"  LLC:              256 KB total,", "  L1D:              1 KB,"}},
		{2, 64, []string{"  L1D:              512 B,", "  LLC:              32 KB total,"}},
		{8, 1, []string{"  LLC:              8 MB total,", "  L2:               768 KB,"}},
	} {
		var b strings.Builder
		printConfig(&b, c.cores, c.scale)
		for _, want := range c.want {
			if !strings.Contains(b.String(), want) {
				t.Errorf("cores %d scale %d: output lacks %q:\n%s", c.cores, c.scale, want, b.String())
			}
		}
	}
}
