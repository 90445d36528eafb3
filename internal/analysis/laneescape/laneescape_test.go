// Package laneescape_test keeps the escape-fixture test under the package
// path it has always had. The analyzer it drives is sharedstate, which
// absorbed laneescape's transitive walk.
package laneescape_test

import (
	"testing"

	"hwdp/internal/analysis/analyzertest"
	"hwdp/internal/analysis/sharedstate"
)

// TestLaneEscape drives the transitive proof over the escape fixture: a
// model package reaching package-level writes, host locks, and goroutine
// launches through a helper package.
func TestLaneEscape(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/mmu/escape", sharedstate.Analyzer)
}
