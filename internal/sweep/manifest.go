package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// ManifestSchema versions the SWEEP_hwdp.json layout. Schema 2 added the
// run records' typed results.
const ManifestSchema = 2

// Header is the host preamble every JSON artifact opens with: the
// artifact's schema version and the Go toolchain and platform that
// produced it.
type Header struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// HostHeader returns the header for an artifact of the given schema on
// this host.
func HostHeader(schema int) Header {
	return Header{Schema: schema, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// WriteJSON writes v to path as indented JSON with a trailing newline.
func WriteJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// RunRecord is one unit's row in the sweep manifest.
type RunRecord struct {
	// Name and Kind identify the unit.
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Status is the unit outcome ("ok", "failed", "panic", "timeout").
	Status Status `json:"status"`
	// Cache is "hit", "miss" or "off".
	Cache string `json:"cache"`
	// CacheKey is the content address, when caching was enabled.
	CacheKey string `json:"cache_key,omitempty"`
	// DurationMS is wall-clock milliseconds spent on the unit.
	DurationMS float64 `json:"duration_ms"`
	// OutputSHA256 hashes the unit's output text; it is the per-unit
	// determinism witness (identical across -j values and cache hits).
	OutputSHA256 string `json:"output_sha256"`
	// Error and Stack describe failures.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Result is the unit's typed result (Result.Value), absent for
	// text-only units and for runs that panicked or timed out.
	Result any `json:"result,omitempty"`
}

// Manifest is the machine-readable record of one sweep, written as
// SWEEP_hwdp.json for CI artifacts. It is the only manifest: campaign and
// fleet runs record their typed results in it.
type Manifest struct {
	// Header carries ManifestSchema and the host toolchain.
	Header
	// Workers is the requested pool bound (-j).
	Workers int `json:"workers"`
	// Units/OK/Failed/CacheHits/CacheMisses summarize the run.
	Units       int `json:"units"`
	OK          int `json:"ok"`
	Failed      int `json:"failed"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// WallMS is the sweep's end-to-end wall-clock time; AggregateMS sums
	// the per-unit durations. Their ratio is the measured parallel
	// speedup (cache hits deflate AggregateMS, so compare uncached runs
	// when measuring scaling).
	WallMS          float64 `json:"wall_ms"`
	AggregateMS     float64 `json:"aggregate_ms"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
	// Runs is one record per unit, in unit-list order.
	Runs []RunRecord `json:"runs"`
}

// NewManifest summarizes a sweep's results.
func NewManifest(results []Result, workers int, wall time.Duration) Manifest {
	m := Manifest{
		Header:  HostHeader(ManifestSchema),
		Workers: workers,
		Units:   len(results),
		WallMS:  float64(wall.Nanoseconds()) / 1e6,
	}
	var agg time.Duration
	for _, r := range results {
		rec := RunRecord{
			Name:         r.Name,
			Kind:         r.Kind,
			Status:       r.Status,
			Cache:        r.Cache,
			CacheKey:     r.CacheKey,
			DurationMS:   float64(r.Duration.Nanoseconds()) / 1e6,
			OutputSHA256: digest(r.Output),
			Error:        r.Err,
			Stack:        r.Stack,
			Result:       r.Value,
		}
		switch {
		case r.Status == StatusOK:
			m.OK++
		default:
			m.Failed++
		}
		switch r.Cache {
		case "hit":
			m.CacheHits++
		case "miss":
			m.CacheMisses++
		}
		agg += r.Duration
		m.Runs = append(m.Runs, rec)
	}
	m.AggregateMS = float64(agg.Nanoseconds()) / 1e6
	if m.WallMS > 0 {
		m.ParallelSpeedup = m.AggregateMS / m.WallMS
	}
	return m
}

// DeterministicSignature projects the manifest onto its host-independent
// fields — unit names, kinds, statuses and output hashes, in order — so
// two sweeps of the same units can be compared regardless of worker
// count, timing or cache state. Equality of signatures is the
// sequential-vs-parallel equivalence check used by the golden tests.
func (m Manifest) DeterministicSignature() string {
	var b strings.Builder
	for _, r := range m.Runs {
		fmt.Fprintf(&b, "%s|%s|%s|%s\n", r.Name, r.Kind, r.Status, r.OutputSHA256)
	}
	return b.String()
}

// digest hex-encodes SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
