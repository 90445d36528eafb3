// Package lanesafety_test keeps the ssd-fixture test under the package path
// it has always had. The analyzer it drives is sharedstate, which absorbed
// lanesafety's package-variable, sync and channel checks.
package lanesafety_test

import (
	"testing"

	"hwdp/internal/analysis/analyzertest"
	"hwdp/internal/analysis/sharedstate"
)

// TestLanesafety checks a device-stack package whose own functions touch
// shared state.
func TestLanesafety(t *testing.T) {
	analyzertest.Run(t, "../testdata", "hwdp/internal/ssd", sharedstate.Analyzer)
}
