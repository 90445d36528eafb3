package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkDefinition checks BENCHMARK.json against itself and
// against the tables the command reports from.
func TestBenchmarkDefinition(t *testing.T) {
	b := loadBenchmark(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var wls []string
	for _, w := range b.Workloads {
		name(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if lookupWorkload(w.Name) == nil {
			t.Errorf("workload %s has no definition", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command defines %d", len(wls), len(workloads))
	}

	var e2e []string
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		name(m.Name)
		e2e = append(e2e, m.Name)
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit {
			t.Errorf("end_to_end[%d] = %s in %s, command reports %v", i, m.Name, m.Unit, endToEnd)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") ||
			m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a unit, a direction and a bound in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared with the largest bound (%v < %v)", setupBound, maxBound)
	}
	if len(e2e) != len(endToEnd) {
		t.Errorf("end_to_end has %d metrics, the command reports %d", len(e2e), len(endToEnd))
	}

	table := layerTable()
	if len(table) != len(b.PerLayer) {
		t.Errorf("per_layer has %d metrics, the command reports %d", len(b.PerLayer), len(table))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit or direction", m.Name)
		}
		if i >= len(table) {
			continue
		}
		lm := table[i]
		if lm.name != m.Name || lm.unit != m.Unit || lm.better != m.Better {
			t.Errorf("per_layer[%d] = %+v, command reports %s %s %s", i, m, lm.name, lm.unit, lm.better)
		}
		if len(lm.moves) == 0 || len(lm.on) == 0 {
			t.Errorf("%s must name the end-to-end metric it moves and the workload", lm.name)
		}
		for _, e := range lm.moves {
			if !slices.Contains(e2e, e) {
				t.Errorf("%s moves undeclared end-to-end metric %q", lm.name, e)
			}
		}
		for _, w := range lm.on {
			if !slices.Contains(wls, w) {
				t.Errorf("%s names undeclared workload %q", lm.name, w)
			}
		}
	}

	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" || len(b.Command) < 2 || b.Command[1] != "perfbench/run.sh" {
		t.Errorf("command %v / paths %v do not point at this directory", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// driveTiny sets up and drives w once at its tiny size.
func driveTiny(t *testing.T, w *workloadDef, seed uint64, traced bool) *outcome {
	t.Helper()
	inst, err := w.setup(seed, w.tiny, traced)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.name, err)
	}
	out, err := inst.drive()
	if err != nil {
		t.Fatalf("%s: drive: %v", w.name, err)
	}
	return out
}

// TestTinyRunsAndSeeds drives every workload at its tiny size: no op
// fails, one seed repeats its sim_digest exactly (traced or not), and
// another seed changes it.
func TestTinyRunsAndSeeds(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := driveTiny(t, w, defaultSeed, false)
			if a.attempted == 0 || a.failed != 0 {
				t.Fatalf("op_error_ratio: %d of %d ops failed", a.failed, a.attempted)
			}
			if b := driveTiny(t, w, defaultSeed, false); b.digest != a.digest {
				t.Errorf("seed %d does not repeat: %s vs %s", defaultSeed, a.digest, b.digest)
			}
			if tr := driveTiny(t, w, defaultSeed, true); tr.digest != a.digest {
				t.Errorf("tracing changed the simulated results: %s vs %s", tr.digest, a.digest)
			}
			if c := driveTiny(t, w, heldOutSeed, false); c.digest == a.digest {
				t.Errorf("seeds %d and %d give the same sim_digest", defaultSeed, heldOutSeed)
			}
		})
	}
}

// TestGateFailures feeds the correctness gate outcomes it must reject.
func TestGateFailures(t *testing.T) {
	good := func() *outcome {
		return &outcome{attempted: 20_000, samples: 20_000, victimSamples: 20_000, digest: "a"}
	}
	cases := map[string]func(o *outcome){
		"failed op":        func(o *outcome) { o.failed = 1 },
		"too few samples":  func(o *outcome) { o.victimSamples = 9_999 },
		"digest mismatch":  func(o *outcome) { o.digest = "b" },
		"nothing is wrong": func(o *outcome) {},
	}
	for name, spoil := range cases {
		s := newSession(workloads[0], defaultSeed, workloads[0].tiny)
		s.check(0, good(), false)
		o := good()
		spoil(o)
		s.check(0, o, true)
		res, err := s.finish()
		if (err == nil) != (name == "nothing is wrong") || res.Correct != (err == nil) {
			t.Errorf("%s: correct=%v err=%v", name, res.Correct, err)
		}
	}
}

// TestSubSeedsFollowSeed checks that a run's inputs are a function of
// --seed alone.
func TestSubSeedsFollowSeed(t *testing.T) {
	a, b := newSession(workloads[0], 1, sizes{}), newSession(workloads[0], 1, sizes{})
	c := newSession(workloads[0], 2, sizes{})
	if !slices.Equal(a.seeds, b.seeds) || slices.Equal(a.seeds, c.seeds) {
		t.Fatalf("sub-seeds: seed 1 %v / %v, seed 2 %v", a.seeds, b.seeds, c.seeds)
	}
}
