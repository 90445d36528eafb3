package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd/modeled"
)

// modeledConfig is the modeled-SSD determinism machine: two sockets with
// modeled (FTL + GC) devices on tight geometry and churned
// preconditioning, so the run exercises mapping-cache misses, buffered
// writes and garbage collection — the stateful paths where an
// ordering bug would first show up as divergent timings.
func modeledConfig() Config {
	cfg := smallConfig(kernel.HWDP)
	cfg.DeviceJitter = true // keep the PRNG-coupled device paths in play
	cfg.Sockets = 2
	cfg.Seed = 23
	cfg.SSDBackend = "modeled"
	cfg.SSDModeled = modeled.Config{
		Channels:        2,
		WaysPerChannel:  1,
		PlanesPerWay:    2,
		PagesPerBlock:   16,
		OPFrac:          0.15,
		MapEntries:      256,
		BufEntries:      8,
		ChurnOverwrites: 2,
	}
	// BlockTimeout is left at its default on purpose: NewSystem must
	// disarm the abort-driven watchdog for the fault-free modeled backend,
	// or the pinned event digest changes.
	return cfg
}

// mix is a splitmix64-style finalizer: hashing each fired-event timestamp
// before summing makes the multiset digest sensitive to any timestamp
// change.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// modeledDigest drives a read+write miss storm against the modeled
// devices and renders every determinism-sensitive output: final clock,
// kernel/SMU/device stats, each socket's FTL Stats, and a digest of the
// fired-event multiset.
func modeledDigest(t *testing.T) string {
	t.Helper()
	cfg := modeledConfig()
	s := build(t, cfg)

	var eventSum, eventCount uint64
	s.Eng.SetObserver(func(at sim.Time) {
		eventSum += mix(uint64(at))
		eventCount++
	})

	th := s.WorkloadThread(0)
	vas := make([]pagetable.VAddr, cfg.Sockets)
	for sid := 0; sid < cfg.Sockets; sid++ {
		va, _, err := s.MapFileOn(sid, fmt.Sprintf("f%d", sid), 64,
			fs.SeededInit(uint64(sid+1)), s.FastFlags())
		if err != nil {
			t.Fatal(err)
		}
		vas[sid] = va
	}
	// Interleave cold misses across sockets, every third access a write so
	// dirty pages exist, then msync both mappings to push writes through
	// the FTL (buffered programs, possibly GC) and settle.
	for page := 0; page < 64; page++ {
		for sid := 0; sid < cfg.Sockets; sid++ {
			va := vas[sid] + pagetable.VAddr(page)*4096
			var done bool
			s.K.Access(th, va, page%3 == 0, func(mmu.Result) { done = true })
			s.RunWhile(func() bool { return !done })
			if !done {
				t.Fatal("access hung")
			}
		}
	}
	for sid := 0; sid < cfg.Sockets; sid++ {
		var done bool
		s.K.Msync(th, vas[sid], func() { done = true })
		s.RunWhile(func() bool { return !done })
		if !done {
			t.Fatal("msync hung")
		}
	}
	s.RunFor(2 * sim.Millisecond)

	out := fmt.Sprintf("clock=%d kernel=%+v events=%016x/%d",
		s.Eng.Now(), s.K.Stats(), eventSum, eventCount)
	for sid := 0; sid < cfg.Sockets; sid++ {
		out += fmt.Sprintf(" smu%d=%+v dev%d=%+v ftl%d=%+v",
			sid, s.SMUs[sid].Stats(), sid, s.Devs[sid].Stats(),
			sid, s.ModeledSSDs[sid].Stats())
	}
	return out
}

// modeledPin is the SHA-256 of modeledDigest's rendering (amd64, like
// the root package's goldenPin: device jitter renders through float64).
// Re-pin only for sanctioned timing-model or modeled-backend changes.
const modeledPin = "5866c3c64d6d7472e4a971e4f2497248d94f865e309c9b3ca60c65efbf5157a6"

// TestModeledSSDDigestPinned is the determinism pin for the modeled
// backend: same seed ⇒ byte-identical Stats (device, FTL, SMU, kernel)
// and fired-event multiset digest, run to run and against the pin.
func TestModeledSSDDigestPinned(t *testing.T) {
	out := modeledDigest(t)
	if again := modeledDigest(t); again != out {
		t.Fatalf("same seed diverged across two runs:\n got: %s\nwant: %s", again, out)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned digest is amd64-only (%s)", runtime.GOARCH)
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != modeledPin {
		t.Fatalf("modeled-SSD digest changed:\n got  %s\n want %s\nrendering: %s", got, modeledPin, out)
	}
}

// TestModeledBackendEndToEnd smoke-tests the full stack on one socket:
// misses complete, the FTL sees the device's read traffic, write-backs
// land as buffered programs, and the invariants audit clean afterwards.
func TestModeledBackendEndToEnd(t *testing.T) {
	cfg := modeledConfig()
	cfg.Sockets = 1
	s := build(t, cfg)
	va, _, err := s.MapFileOn(0, "f", 128, fs.SeededInit(7), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	th := s.WorkloadThread(0)
	for page := 0; page < 128; page++ {
		var done bool
		s.K.Access(th, va+pagetable.VAddr(page)*4096, page%2 == 0, func(mmu.Result) { done = true })
		s.RunWhile(func() bool { return !done })
	}
	var done bool
	s.K.Msync(th, va, func() { done = true })
	s.RunWhile(func() bool { return !done })
	m := s.ModeledSSDs[0]
	st := m.Stats()
	if st.UserReads == 0 {
		t.Fatal("modeled backend saw no read traffic — seam not wired")
	}
	if st.UserWrites == 0 {
		t.Fatal("msync produced no modeled write traffic")
	}
	if st.PrecondErases == 0 {
		t.Fatal("churned preconditioning left no GC history")
	}
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("FTL invariants violated after end-to-end run: %v", vs[0])
	}
	ds := s.Dev.Stats()
	if ds.MediaBusySum == 0 || ds.Reads == 0 {
		t.Fatalf("device stats not accounted: %+v", ds)
	}
}
