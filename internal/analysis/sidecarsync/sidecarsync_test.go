package sidecarsync

import (
	"testing"

	"zivsim/internal/analysis/analysistest"
)

func TestSidecarsync(t *testing.T) {
	// scs must precede scst: scst consumes scs's exported alias facts,
	// the same bottom-up order RunSuite guarantees for real packages.
	analysistest.Run(t, "testdata", Analyzer,
		"zivsim/internal/scs",
		"zivsim/internal/scst",
		"zivsim/internal/scb",
	)
}
