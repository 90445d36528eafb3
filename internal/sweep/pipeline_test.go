package sweep_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hwdp/internal/campaign"
	"hwdp/internal/fleet"
	"hwdp/internal/sweep"
)

// These tests drive the campaign and fleet result types through the
// sweep the way hwdpbench -pressure and -fleet do: each unit returns its
// rendered report, its typed result and, for a campaign, its audit.

// campaignUnit wraps a finished scenario result as a unit.
func campaignUnit(r campaign.Result) sweep.Unit {
	return sweep.Unit{Name: "campaign/" + r.Name, Kind: "campaign", Fingerprint: r.Name,
		Run: func() (string, any, error) { return campaign.RenderResult(r), r, r.Audit() }}
}

// fleetUnit runs one fleet experiment as a unit.
func fleetUnit(c fleet.Config) sweep.Unit {
	return sweep.Unit{Name: c.Name, Kind: "fleet", Fingerprint: c.Fingerprint(),
		Run: func() (string, any, error) {
			r, err := fleet.Run(c)
			if err != nil {
				return "", nil, err
			}
			return fleet.RenderResult(r), r, nil
		}}
}

// ladderResults are two clean ladder rows and one scenario whose audit
// found leaked frames.
func ladderResults() []campaign.Result {
	return []campaign.Result{
		{Name: "ladder/hwdp/r1.5", Kind: "ladder", Scheme: "HWDP", OversubRatio: 1.5,
			P999US: 120.5, FallbackRate: 0.01, WatchdogRuns: 9,
			PSI: []campaign.PSIRow{{Kind: "alloc", Stalls: 3, TaskTimeUS: 1.25}}},
		{Name: "ladder/osdp/r1.5", Kind: "ladder", Scheme: "OSDP", OversubRatio: 1.5,
			P999US: 240.1},
		{Name: "oom/hwdp", Kind: "oom", Scheme: "HWDP", OversubRatio: 2.5,
			LeakedFrames: 3},
	}
}

// TestPanicIsNotCounted is the regression for the side-slice accounting
// bug: a scenario or experiment that panics used to leave a zero Result
// that the summary counted as clean (no violations, no leaked frames) or
// as meeting SLO. A panicking run now has no value at all, and the
// summaries, which count sweep.Values, skip it.
func TestPanicIsNotCounted(t *testing.T) {
	boom := func(kind string) sweep.Unit {
		return sweep.Unit{Name: kind + "/boom", Kind: kind, Fingerprint: "fp",
			Run: func() (string, any, error) { panic("injected") }}
	}
	cfg := fleet.QuickLadder(1)[0]
	units := []sweep.Unit{campaignUnit(ladderResults()[0]), boom("campaign"), fleetUnit(cfg), boom("fleet")}
	rs := sweep.Run(units, sweep.Options{Workers: 2})
	m := sweep.NewManifest(rs, 2, time.Millisecond)
	for _, i := range []int{1, 3} {
		if rs[i].Status != sweep.StatusPanicked || rs[i].Value != nil || m.Runs[i].Result != nil {
			t.Fatalf("%s: status %s, value %v, manifest result %v; want a panic with no value",
				rs[i].Name, rs[i].Status, rs[i].Value, m.Runs[i].Result)
		}
	}
	if clean := len(sweep.Values[campaign.Result](rs)); clean != 1 {
		t.Fatalf("%d campaign scenarios counted clean, want 1 (the panic is not clean)", clean)
	}
	fl := sweep.Values[fleet.Result](rs)
	met, rows := 0, 0
	for _, r := range fl {
		met += r.SLOMet
		rows += len(r.Rows)
	}
	if len(fl) != 1 || rows != cfg.Tenants || met > rows {
		t.Fatalf("fleet summary counted %d experiments, %d/%d rows; want 1 experiment, %d rows",
			len(fl), met, rows, cfg.Tenants)
	}
}

// TestManifestRoundTrip writes a sweep manifest holding campaign and
// fleet results, decodes it back into []campaign.Result and
// []fleet.Result, and checks the decoded results equal the sweep's and
// render the same comparison figures. A scenario with a dirty audit fails
// its unit but keeps its result in the manifest; only the clean ones
// count.
func TestManifestRoundTrip(t *testing.T) {
	var units []sweep.Unit
	for _, r := range ladderResults() {
		units = append(units, campaignUnit(r))
	}
	cfgs := fleet.QuickLadder(1)
	for _, c := range cfgs {
		units = append(units, fleetUnit(c))
	}
	rs := sweep.Run(units, sweep.Options{Workers: 2})
	path := filepath.Join(t.TempDir(), "SWEEP_test.json")
	if err := sweep.WriteJSON(path, sweep.NewManifest(rs, 2, time.Second)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema int
		Runs   []struct {
			Kind   string
			Status sweep.Status
			Result json.RawMessage
		}
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != sweep.ManifestSchema || len(m.Runs) != len(units) {
		t.Fatalf("manifest schema %d with %d runs", m.Schema, len(m.Runs))
	}
	var camp, campOK []campaign.Result
	var fl []fleet.Result
	for i, run := range m.Runs {
		switch run.Kind {
		case "campaign":
			var r campaign.Result
			if err := json.Unmarshal(run.Result, &r); err != nil {
				t.Fatal(err)
			}
			camp = append(camp, r)
			if run.Status == sweep.StatusOK {
				campOK = append(campOK, r)
			}
		case "fleet":
			var r fleet.Result
			if err := json.Unmarshal(run.Result, &r); err != nil {
				t.Fatal(err)
			}
			if run.Status != sweep.StatusOK {
				t.Fatalf("%s: %s", rs[i].Name, rs[i].Err)
			}
			fl = append(fl, r)
		}
	}
	if want := ladderResults(); !reflect.DeepEqual(camp, want) {
		t.Fatalf("decoded campaign results differ:\n%+v\nwant\n%+v", camp, want)
	}
	if len(campOK) != 2 || !strings.Contains(rs[2].Err, "3 frames leaked") {
		t.Fatalf("%d clean scenarios, dirty one failed with %q; want 2 and a leak error", len(campOK), rs[2].Err)
	}
	if got, want := campaign.RenderComparison(campOK),
		campaign.RenderComparison(sweep.Values[campaign.Result](rs)); got != want {
		t.Fatalf("decoded campaign figure differs:\n%s\nwant\n%s", got, want)
	}
	fig := campaign.RenderComparison(campOK)
	for _, want := range []string{"HWDP p99.9", "OSDP p99.9", "120.50", "240.10", "1.5"} {
		if !strings.Contains(fig, want) {
			t.Fatalf("comparison figure missing %q:\n%s", want, fig)
		}
	}

	if !reflect.DeepEqual(fl, sweep.Values[fleet.Result](rs)) {
		t.Fatal("decoded fleet results differ from the sweep's")
	}
	rows := 0
	for _, r := range fl {
		rows += len(r.Rows)
	}
	if len(fl) != len(cfgs) || rows != len(cfgs)*cfgs[0].Tenants {
		t.Fatalf("decoded %d experiments with %d tenant rows", len(fl), rows)
	}
	if got, want := fleet.RenderComparison(fl),
		fleet.RenderComparison(sweep.Values[fleet.Result](rs)); got != want {
		t.Fatalf("decoded fleet figure differs:\n%s\nwant\n%s", got, want)
	}
}
