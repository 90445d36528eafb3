package core

import (
	"hwdp/internal/pagetable"
	"testing"

	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

func smallConfig(scheme kernel.Scheme) Config {
	cfg := DefaultConfig(scheme)
	cfg.MemoryBytes = 32 << 20
	cfg.FSBlocks = 1 << 16
	cfg.DeviceJitter = false
	return cfg
}

// build assembles a machine, failing the test on an invalid config.
func build(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemAssembly(t *testing.T) {
	s := build(t, smallConfig(kernel.HWDP))
	if s.CPU == nil || s.K == nil || s.SMU == nil {
		t.Fatal("incomplete assembly")
	}
	if got := s.Mem.Frames(); got != (32<<20)/4096 {
		t.Fatalf("frames = %d", got)
	}
	// Free page queue primed at start.
	if s.SMU.FreeQueue().Len()+s.SMU.FreeQueue().Buffered() == 0 {
		t.Fatal("free page queue not primed")
	}
}

func TestTooFewCoresErrors(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.Cores = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate: want error for 1 core")
	}
	if sys, err := NewSystem(cfg); err == nil || sys != nil {
		t.Fatalf("NewSystem: want nil system + error, got %v, %v", sys, err)
	}
}

func TestWorkloadThreadPinning(t *testing.T) {
	s := build(t, smallConfig(kernel.HWDP))
	t0 := s.WorkloadThread(0)
	t1 := s.WorkloadThread(1)
	if t0.HW.ID != 0 || t1.HW.ID != 2 {
		t.Fatalf("pinning: %d %d", t0.HW.ID, t1.HW.ID)
	}
	a, b := s.SMTPair(3)
	if a.HW.ID != 6 || b.HW.ID != 7 {
		t.Fatalf("smt pair: %d %d", a.HW.ID, b.HW.ID)
	}
}

func TestMeasureSingleFaultHWDP(t *testing.T) {
	s := build(t, smallConfig(kernel.HWDP))
	va, _, err := s.MapFile("f", 16, fs.SeededInit(1), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	lat, tr := s.MeasureSingleFault(s.WorkloadThread(0), va)
	want := s.MMU.WalkLatency + s.SMU.Timing().BeforeDevice() + ssd.ZSSD.Read4K + s.SMU.Timing().AfterDevice()
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
	if len(tr.Phases) < 6 {
		t.Fatalf("trace phases = %d", len(tr.Phases))
	}
	if tr.Total != lat {
		t.Fatal("trace total mismatch")
	}
}

func TestMeasureSingleFaultAllSchemes(t *testing.T) {
	var lats []sim.Time
	for _, scheme := range []kernel.Scheme{kernel.HWDP, kernel.SWDP, kernel.OSDP} {
		s := build(t, smallConfig(scheme))
		va, _, err := s.MapFile("f", 16, fs.SeededInit(1), s.FastFlags())
		if err != nil {
			t.Fatal(err)
		}
		lat, _ := s.MeasureSingleFault(s.WorkloadThread(0), va)
		lats = append(lats, lat)
	}
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Fatalf("scheme ordering: hw=%v sw=%v os=%v", lats[0], lats[1], lats[2])
	}
}

func TestFastFlagsPerScheme(t *testing.T) {
	if !build(t, smallConfig(kernel.HWDP)).FastFlags().Fast {
		t.Fatal("HWDP should use fast mmap")
	}
	if build(t, smallConfig(kernel.OSDP)).FastFlags().Fast {
		t.Fatal("OSDP must not use fast mmap")
	}
}

func TestRunFor(t *testing.T) {
	s := build(t, smallConfig(kernel.HWDP))
	s.RunFor(10 * sim.Millisecond)
	if s.Eng.Now() < 10*sim.Millisecond {
		t.Fatalf("now = %v", s.Eng.Now())
	}
}

func TestEndToEndAccessSequence(t *testing.T) {
	// A longer mixed run on the default machine keeps all invariants: no
	// panics, resident pages bounded by physical frames.
	s := build(t, smallConfig(kernel.HWDP))
	va, _, err := s.MapFile("db", 4096, fs.SeededInit(3), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	th := s.WorkloadThread(0)
	rng := sim.NewRand(9)
	ops := 0
	var loop func()
	loop = func() {
		if ops >= 500 {
			return
		}
		ops++
		page := rng.Intn(4096)
		s.K.Access(th, va+sim2VA(page), rng.Intn(10) == 0, func(r mmu.Result) {
			if r.Outcome == mmu.OutcomeBadAddr {
				t.Errorf("bad addr at page %d", page)
				return
			}
			loop()
		})
	}
	loop()
	s.RunWhile(func() bool { return ops < 500 })
	if ops != 500 {
		t.Fatalf("ops = %d", ops)
	}
	if s.Mem.FreeFrames() > s.Mem.Frames() {
		t.Fatal("frame accounting corrupt")
	}
}

func sim2VA(page int) (v pagetableVAddr) { return pagetableVAddr(page) * 4096 }

type pagetableVAddr = pagetable.VAddr
