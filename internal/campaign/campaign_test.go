package campaign

import (
	"encoding/json"
	"strings"
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
)

// quickScenario is a small oversubscribed HWDP run under a fault storm
// with every pressure mechanism armed — the closest thing to a worst case
// that still finishes fast.
func quickScenario() Scenario {
	return Scenario{
		Name:           "test/all-on",
		Kind:           "test",
		Scheme:         kernel.HWDP,
		MemoryMB:       4,
		OversubRatio:   2.0,
		Procs:          2,
		Threads:        2,
		OpsPerThread:   1500,
		WriteFrac:      0.6,
		DirtyRatioFrac: 0.15,
		OOMStallLimit:  300 * sim.Microsecond,
		Faults: []fault.Rule{
			{Kind: fault.Transient, Prob: 0.03},
			{Kind: fault.Spike, Prob: 0.02, SpikeFactor: 10},
		},
		Seed: 7,
	}
}

// mustRun runs a scenario, failing the test if the machine cannot be built.
func mustRun(t *testing.T, sc Scenario) Result {
	t.Helper()
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A campaign scenario must complete with a clean audit: the watchdog ran,
// recorded nothing, and every allocated frame is accounted for.
func TestScenarioCleanAudit(t *testing.T) {
	r := mustRun(t, quickScenario())
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
	if r.WatchdogRuns == 0 {
		t.Fatal("watchdog never ticked")
	}
	if len(r.WatchdogViolations) != 0 {
		t.Fatalf("watchdog violations: %v", r.WatchdogViolations)
	}
	if r.LeakedFrames != 0 {
		t.Fatalf("%d frames leaked", r.LeakedFrames)
	}
}

// The pressure machinery must actually engage under the storm — a clean
// audit of mechanisms that never fired proves nothing.
func TestScenarioExercisesPressure(t *testing.T) {
	r := mustRun(t, quickScenario())
	if r.Evictions == 0 {
		t.Fatal("no evictions despite 2x oversubscription")
	}
	if r.FlusherRuns == 0 && r.ThrottledWrites == 0 {
		t.Fatal("dirty-ratio machinery never engaged")
	}
	total := uint64(0)
	for _, row := range r.PSI {
		total += row.Stalls
	}
	if total == 0 {
		t.Fatal("no pressure stalls recorded")
	}
}

// Same scenario, same seed, same report: campaigns must be deterministic
// so the sweep manifest is a regression artifact, not noise.
func TestScenarioDeterministic(t *testing.T) {
	a, err := json.Marshal(mustRun(t, quickScenario()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mustRun(t, quickScenario()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("two runs of one scenario differ:\n%s\n%s", a, b)
	}
}

// An OSDP scenario must run the same traffic through the software path
// (no SMU involvement) and still audit clean.
func TestScenarioOSDPClean(t *testing.T) {
	sc := quickScenario()
	sc.Scheme = kernel.OSDP
	sc.DirtyRatioFrac = 0 // throttle scenario is HWDP's; keep OSDP minimal
	r := mustRun(t, sc)
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if r.FallbackRate != 0 {
		t.Fatalf("OSDP has no hardware path to fall back from (rate %f)", r.FallbackRate)
	}
	if len(r.WatchdogViolations) != 0 || r.LeakedFrames != 0 {
		t.Fatalf("violations %v leaked %d", r.WatchdogViolations, r.LeakedFrames)
	}
}

// The audit calls a run clean only with no violations and no leaked
// frames, and the comparison figure renders the ladder rows alone. (The
// round trip of these results through the sweep manifest is
// internal/sweep's TestManifestRoundTrip.)
func TestManifestAndComparison(t *testing.T) {
	results := []Result{
		{Name: "ladder/hwdp/r1.5", Kind: "ladder", Scheme: "HWDP", OversubRatio: 1.5,
			P999US: 120.5, FallbackRate: 0.01},
		{Name: "ladder/osdp/r1.5", Kind: "ladder", Scheme: "OSDP", OversubRatio: 1.5,
			P999US: 240.1},
		{Name: "oom/hwdp", Kind: "oom", Scheme: "HWDP", OversubRatio: 2.5,
			LeakedFrames: 3},
		{Name: "throttle/hwdp", Kind: "throttle", Scheme: "HWDP", OversubRatio: 1.2,
			WatchdogViolations: []string{"frame 7 on two LRUs"}},
	}
	for i, want := range []string{"", "", "3 frames leaked", "1 watchdog violations, first: frame 7"} {
		err := results[i].Audit()
		if (err == nil) != (want == "") || err != nil && !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: audit = %v, want %q", results[i].Name, err, want)
		}
	}
	fig := RenderComparison(results)
	for _, want := range []string{"HWDP p99.9", "OSDP p99.9", "120.50", "240.10", "1.5"} {
		if !strings.Contains(fig, want) {
			t.Fatalf("comparison figure missing %q:\n%s", want, fig)
		}
	}
	if strings.Contains(fig, "oom/hwdp") {
		t.Fatal("non-ladder scenario leaked into the comparison figure")
	}
}

// DefaultScenarios covers both schemes, the full ladder and both
// mechanism scenarios, with unique names and positive workloads.
func TestDefaultScenarios(t *testing.T) {
	scs := DefaultScenarios(true)
	names := map[string]bool{}
	kinds := map[string]int{}
	for _, sc := range scs {
		if names[sc.Name] {
			t.Fatalf("duplicate scenario name %s", sc.Name)
		}
		names[sc.Name] = true
		kinds[sc.Kind]++
		if sc.Threads <= 0 || sc.OpsPerThread <= 0 || sc.MemoryMB <= 0 {
			t.Fatalf("degenerate scenario %+v", sc)
		}
	}
	if kinds["ladder"] != 6 || kinds["throttle"] != 1 || kinds["oom"] != 1 {
		t.Fatalf("scenario mix %v", kinds)
	}
}
