package hwdp

import (
	"strings"
	"testing"
)

func faultyCfg(rules ...FaultRule) Config {
	cfg := det(HWDP)
	cfg.Faults = rules
	return cfg
}

func TestFaultyDeviceWorkloadCompletes(t *testing.T) {
	cfg := faultyCfg(
		FaultRule{Kind: FaultTransient, Prob: 0.1},
		FaultRule{Kind: FaultSpike, Prob: 0.02, SpikeFactor: 5},
	)
	sys := newSys(t, cfg)
	res, err := sys.RunFIO(2, 300, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 600 {
		t.Fatalf("ops = %d", res.Ops)
	}
	rec := sys.Recovery()
	if rec.InjectedTransient == 0 {
		t.Fatalf("nothing injected: %+v", rec)
	}
	if rec.SMURetries == 0 && rec.BlockRetries == 0 {
		t.Fatalf("no layer retried: %+v", rec)
	}
	if vs := sys.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestSMUPathOnlyFaultsDegradeToOS(t *testing.T) {
	// 100% retryable failures on the hardware path only: every HW miss
	// must degrade to the OS fallback — slower, but never stuck and never
	// fatal.
	sys := newSys(t, faultyCfg(FaultRule{Kind: FaultTransient, Prob: 1, SMUPathOnly: true}))
	res, err := sys.RunFIO(2, 200, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 400 {
		t.Fatalf("ops = %d", res.Ops)
	}
	rec := sys.Recovery()
	if rec.HWBounceFaults == 0 {
		t.Fatalf("no walk degraded to the OS path: %+v", rec)
	}
	if rec.SIGBUSKills != 0 {
		t.Fatalf("retryable faults killed a thread: %+v", rec)
	}
	if rec.SMUFramesRecycled == 0 {
		t.Fatalf("failed HW walks recycled no frames: %+v", rec)
	}
	// OS-path I/O shares the device but not the faulty queue: it must not
	// see a single injection.
	if rec.BlockRetries != 0 || rec.BlockTimeouts != 0 {
		t.Fatalf("fault leaked onto the OS queues: %+v", rec)
	}
	if vs := sys.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestDropRecoveryNeedsSMUTimeout(t *testing.T) {
	cfg := faultyCfg(FaultRule{Kind: FaultDrop, Prob: 0.05, SMUPathOnly: true, MaxInjections: 4})
	cfg.SMUCmdTimeoutUS = 200
	sys := newSys(t, cfg)
	if _, err := sys.RunFIO(2, 200, 4096); err != nil {
		t.Fatal(err)
	}
	rec := sys.Recovery()
	if rec.InjectedDrops == 0 {
		t.Fatalf("nothing dropped: %+v", rec)
	}
	if rec.SMUTimeouts == 0 {
		t.Fatalf("drops never recovered by timeout: %+v", rec)
	}
	if vs := sys.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestRecoveryReportRendering(t *testing.T) {
	sys := newSys(t, faultyCfg(FaultRule{Kind: FaultTransient, Prob: 0.2}))
	if _, err := sys.RunFIO(1, 150, 2048); err != nil {
		t.Fatal(err)
	}
	s := sys.Recovery().String()
	for _, label := range []string{"injected transient", "SMU retries", "HW-bounced faults"} {
		if !strings.Contains(s, label) {
			t.Fatalf("report missing %q:\n%s", label, s)
		}
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (FIOResult, Stats, interface{}) {
		cfg := faultyCfg(
			FaultRule{Kind: FaultTransient, Prob: 0.1},
			FaultRule{Kind: FaultDrop, Prob: 0.01, SMUPathOnly: true},
			FaultRule{Kind: FaultSpike, Prob: 0.05},
		)
		cfg.SMUCmdTimeoutUS = 500
		sys := newSys(t, cfg)
		res, err := sys.RunFIO(2, 250, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return res, sys.Stats(), sys.Recovery()
	}
	r1, s1, rec1 := run()
	r2, s2, rec2 := run()
	if r1 != r2 || s1 != s2 || rec1 != rec2 {
		t.Fatalf("same seed diverged:\n%+v\n%+v\n%+v\n%+v", r1, r2, rec1, rec2)
	}
}
