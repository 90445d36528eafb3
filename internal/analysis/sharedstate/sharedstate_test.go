package sharedstate_test

import (
	"testing"

	"hwdp/internal/analysis/analyzertest"
	"hwdp/internal/analysis/sharedstate"
)

// TestSharedState drives the transitive proof over a package outside the
// device stack that reaches shared state through a local helper (kvs). The
// device-stack fixtures run under TestLanesafety (ssd) and TestLaneEscape
// (mmu/escape).
func TestSharedState(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/kvs", sharedstate.Analyzer)
}
