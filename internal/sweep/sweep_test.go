package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeUnit builds a trivial unit whose output is derived from its name
// and whose runtime is an artificial delay, so scheduling order can be
// perturbed without touching the simulator.
func fakeUnit(name string, delay time.Duration) Unit {
	return Unit{
		Name: name, Kind: "fake", Fingerprint: "fp:" + name,
		Run: func() (string, any, error) {
			time.Sleep(delay)
			return "out:" + name + "\n", nil, nil
		},
	}
}

// TestOrderedOutputAcrossWorkerCounts is the core determinism contract:
// the aggregate output stream and the result slice are byte-identical for
// any -j, even when later units finish first.
func TestOrderedOutputAcrossWorkerCounts(t *testing.T) {
	var units []Unit
	for i := 0; i < 12; i++ {
		// Earlier units sleep longer, so under parallel workers the later
		// units complete first and the emitter must reorder.
		units = append(units, fakeUnit(fmt.Sprintf("u%02d", i),
			time.Duration(12-i)*time.Millisecond))
	}
	var want bytes.Buffer
	for _, u := range units {
		want.WriteString("out:" + u.Name + "\n")
	}
	for _, workers := range []int{1, 4, 16} {
		var out bytes.Buffer
		results := Run(units, Options{Workers: workers, Out: &out})
		if out.String() != want.String() {
			t.Fatalf("workers=%d: output diverged from sequential order:\n%q", workers, out.String())
		}
		for i, r := range results {
			if r.Name != units[i].Name {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, r.Name, units[i].Name)
			}
			if r.Status != StatusOK {
				t.Fatalf("workers=%d: %s status = %s", workers, r.Name, r.Status)
			}
		}
	}
}

// TestPanicIsolation injects a panicking run and verifies it fails alone,
// with a structured record carrying the stack, while every other unit
// completes and the ordered output skips only the dead unit.
func TestPanicIsolation(t *testing.T) {
	units := []Unit{
		fakeUnit("a", 0),
		{Name: "boom", Kind: "fake", Fingerprint: "fp",
			Run: func() (string, any, error) { panic("injected failure") }},
		fakeUnit("b", 0),
	}
	var out bytes.Buffer
	results := Run(units, Options{Workers: 3, Out: &out})
	if got, want := out.String(), "out:a\nout:b\n"; got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
	r := results[1]
	if r.Status != StatusPanicked {
		t.Fatalf("status = %s, want %s", r.Status, StatusPanicked)
	}
	if !strings.Contains(r.Err, "injected failure") {
		t.Fatalf("error %q does not carry the panic value", r.Err)
	}
	if !strings.Contains(r.Stack, "sweep_test.go") {
		t.Fatalf("stack does not attribute the panic site:\n%s", r.Stack)
	}
	for _, i := range []int{0, 2} {
		if results[i].Status != StatusOK {
			t.Fatalf("unit %s did not survive the neighbouring panic", results[i].Name)
		}
	}
}

// TestErrorIsolation verifies a Run error becomes a failed record without
// stopping the sweep, and that the failed run keeps its value (a dirty
// audit is still worth recording) but drops its text and is not an ok
// value.
func TestErrorIsolation(t *testing.T) {
	units := []Unit{
		{Name: "bad", Kind: "fake", Fingerprint: "fp",
			Run: func() (string, any, error) { return "text\n", 7, fmt.Errorf("no such experiment") }},
		fakeUnit("ok", 0),
	}
	var out bytes.Buffer
	results := Run(units, Options{Workers: 2, Out: &out})
	if results[0].Status != StatusFailed || results[0].Err != "no such experiment" {
		t.Fatalf("failed record = %+v", results[0])
	}
	if results[0].Value != 7 || results[0].Output != "" {
		t.Fatalf("failed run: value %v output %q, want 7 and no text", results[0].Value, results[0].Output)
	}
	if got := Values[int](results); len(got) != 0 {
		t.Fatalf("failed run counted as an ok value: %v", got)
	}
	if results[1].Status != StatusOK || out.String() != "out:ok\n" {
		t.Fatal("healthy unit affected by neighbour failure")
	}
}

// TestTimeoutIsolation verifies the wall-clock watchdog abandons a hung
// unit with a structured record while the rest of the sweep completes.
func TestTimeoutIsolation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	units := []Unit{
		{Name: "hung", Kind: "fake", Fingerprint: "fp",
			Run: func() (string, any, error) { <-release; return "late\n", nil, nil }},
		fakeUnit("ok", 0),
	}
	var out bytes.Buffer
	results := Run(units, Options{Workers: 2, UnitTimeout: 20 * time.Millisecond, Out: &out})
	if results[0].Status != StatusTimeout {
		t.Fatalf("status = %s, want %s", results[0].Status, StatusTimeout)
	}
	if !strings.Contains(results[0].Err, "wall-clock budget") {
		t.Fatalf("timeout error = %q", results[0].Err)
	}
	if results[1].Status != StatusOK {
		t.Fatal("healthy unit affected by neighbour timeout")
	}
	if got, want := out.String(), "out:ok\n"; got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

// TestLateRunLeavesNoValue is the regression for a run that finishes after
// its timeout: its value and text must never reach the Result or the
// manifest, even once the abandoned goroutine has returned them. Run it
// with -race: a late write into caller-owned memory is a data race.
func TestLateRunLeavesNoValue(t *testing.T) {
	release, finished := make(chan struct{}), make(chan struct{})
	units := []Unit{
		{Name: "late", Kind: "fake", Fingerprint: "fp",
			Run: func() (string, any, error) {
				defer close(finished)
				<-release
				return "late\n", 42, nil
			}},
		{Name: "ok", Kind: "fake", Fingerprint: "fp",
			Run: func() (string, any, error) { return "ok\n", 1, nil }},
	}
	var out bytes.Buffer
	results := Run(units, Options{Workers: 2, UnitTimeout: 20 * time.Millisecond, Out: &out})
	close(release)
	<-finished
	time.Sleep(10 * time.Millisecond) // let the late outcome reach its dropped channel
	late := results[0]
	if late.Status != StatusTimeout || late.Value != nil || late.Output != "" {
		t.Fatalf("late run leaked into its record: %+v", late)
	}
	if got := Values[int](results); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ok values = %v, want [1]", got)
	}
	m := NewManifest(results, 2, time.Millisecond)
	if m.Runs[0].Result != nil || m.Runs[1].Result != 1 {
		t.Fatalf("manifest results = %v, %v; want none for the late run", m.Runs[0].Result, m.Runs[1].Result)
	}
	if out.String() != "ok\n" {
		t.Fatalf("output = %q", out.String())
	}
}

// TestCacheRoundTrip verifies miss → store → hit, fingerprint
// sensitivity, and that uncacheable units bypass the cache.
func TestCacheRoundTrip(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	unit := Unit{Name: "u", Kind: "fake", Fingerprint: "v1",
		Run: func() (string, any, error) { ran++; return "payload\n", nil, nil }}
	bench := Unit{Name: "bench", Kind: "bench", Fingerprint: "v1", Uncacheable: true,
		Run: func() (string, any, error) { ran++; return "timing\n", nil, nil }}

	r1 := Run([]Unit{unit, bench}, Options{Workers: 1, Cache: cache})
	if r1[0].Cache != "miss" || r1[1].Cache != "off" {
		t.Fatalf("first run cache states = %s, %s", r1[0].Cache, r1[1].Cache)
	}
	r2 := Run([]Unit{unit, bench}, Options{Workers: 1, Cache: cache})
	if r2[0].Cache != "hit" {
		t.Fatalf("second run cache state = %s, want hit", r2[0].Cache)
	}
	if r2[0].Output != "payload\n" {
		t.Fatalf("cached output = %q", r2[0].Output)
	}
	if ran != 3 { // unit once, bench twice
		t.Fatalf("run count = %d, want 3 (hit must not re-run, uncacheable must)", ran)
	}

	// A config change must change the key and force a re-simulation.
	unit.Fingerprint = "v2"
	r3 := Run([]Unit{unit}, Options{Workers: 1, Cache: cache})
	if r3[0].Cache != "miss" {
		t.Fatalf("changed fingerprint cache state = %s, want miss", r3[0].Cache)
	}
	if r3[0].CacheKey == r1[0].CacheKey {
		t.Fatal("cache key ignored the fingerprint")
	}
}

// TestCacheNeverStoresFailures verifies failed runs are not poisoning the
// cache: a later fixed run must re-execute and then hit.
func TestCacheNeverStoresFailures(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	unit := Unit{Name: "flaky", Kind: "fake", Fingerprint: "fp",
		Run: func() (string, any, error) {
			if fail {
				return "", nil, fmt.Errorf("transient")
			}
			return "good\n", nil, nil
		}}
	if r := Run([]Unit{unit}, Options{Cache: cache}); r[0].Status != StatusFailed {
		t.Fatalf("status = %s", r[0].Status)
	}
	fail = false
	r := Run([]Unit{unit}, Options{Cache: cache})
	if r[0].Cache != "miss" || r[0].Output != "good\n" {
		t.Fatalf("recovered run = %+v (a failure must not have been cached)", r[0])
	}
}

// TestManifest verifies counts, the determinism witness and the JSON
// round trip of the sweep manifest.
func TestManifest(t *testing.T) {
	units := []Unit{
		fakeUnit("a", 0),
		{Name: "boom", Kind: "fake", Fingerprint: "fp",
			Run: func() (string, any, error) { panic("x") }},
	}
	seq := NewManifest(Run(units, Options{Workers: 1}), 1, 5*time.Millisecond)
	par := NewManifest(Run(units, Options{Workers: 8}), 8, 5*time.Millisecond)
	if seq.OK != 1 || seq.Failed != 1 || seq.Units != 2 {
		t.Fatalf("manifest counts = %+v", seq)
	}
	if seq.DeterministicSignature() != par.DeterministicSignature() {
		t.Fatalf("deterministic signature depends on worker count:\n%s\nvs\n%s",
			seq.DeterministicSignature(), par.DeterministicSignature())
	}
	if !strings.Contains(seq.DeterministicSignature(), "boom|fake|panic|") {
		t.Fatalf("signature = %q", seq.DeterministicSignature())
	}

	path := filepath.Join(t.TempDir(), "SWEEP_test.json")
	if err := WriteJSON(path, seq); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != ManifestSchema || len(got.Runs) != 2 {
		t.Fatalf("round-tripped manifest = %+v", got)
	}
	if got.Runs[1].Stack == "" {
		t.Fatal("panic stack missing from manifest")
	}
}

// TestProgressReporting verifies one line per unit lands on the progress
// writer and none of it leaks onto the output stream.
func TestProgressReporting(t *testing.T) {
	var out, prog bytes.Buffer
	units := []Unit{fakeUnit("a", 0), fakeUnit("b", 0), fakeUnit("c", 0)}
	Run(units, Options{Workers: 2, Out: &out, Progress: &prog})
	lines := strings.Split(strings.TrimRight(prog.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("progress lines = %d:\n%s", len(lines), prog.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "sweep [") || !strings.Contains(l, "/3]") {
			t.Fatalf("malformed progress line %q", l)
		}
	}
	if strings.Contains(out.String(), "sweep [") {
		t.Fatal("progress leaked into the deterministic output stream")
	}
}
