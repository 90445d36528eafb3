package check

import (
	"fmt"
	"testing"

	"hwdp/internal/core"
	"hwdp/internal/fault"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
)

// TestFrameConservationProperty drives randomized operation sequences —
// mmap, touch (read and write), msync, munmap and fork — against a machine
// whose device injects transient errors, dropped commands and uncorrectable
// reads, then asserts every structural invariant, most importantly frame
// conservation: every frame the OS handed the SMU was installed into a PTE,
// is still held by the hardware, or was recycled. The error paths are
// exactly where frames historically leak (a failed miss must requeue its
// frame; a munmap barrier must not strand one), so the faults are the point,
// not decoration.
func TestFrameConservationProperty(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConservationSequence(t, seed)
		})
	}
}

// region is one live mapping the random walk can operate on.
type region struct {
	va    pagetable.VAddr
	pages int
}

func runConservationSequence(t *testing.T, seed uint64) {
	cfg := core.DefaultConfig(kernel.HWDP)
	cfg.MemoryBytes = 8 << 20
	cfg.FSBlocks = 1 << 16
	cfg.DeviceJitter = false
	cfg.Seed = seed
	// A completion timeout makes dropped commands recoverable; without it a
	// Drop would strand the miss (and this test) forever.
	p := smu.DefaultRetryPolicy()
	p.CmdTimeout = sim.Micro(500)
	cfg.SMURetry = &p
	cfg.FaultRules = []fault.Rule{
		{Kind: fault.Transient, Prob: 0.05},
		{Kind: fault.Drop, Prob: 0.01, MaxInjections: 20},
		{Kind: fault.UECC, Prob: 0.02, ReadsOnly: true, MaxInjections: 30},
	}
	s := build(t, cfg)
	th := s.WorkloadThread(0)
	rng := sim.NewRand(seed)

	var regions []region
	nextName := 0
	mapOne := func(pages int) {
		nextName++
		va, _, err := s.MapFile(fmt.Sprintf("f%d", nextName), pages,
			fs.SeededInit(seed), s.FastFlags())
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, region{va: va, pages: pages})
	}
	for i := 0; i < 3; i++ {
		mapOne(256 + rng.Intn(256))
	}

	ops := 400
	if testing.Short() {
		ops = 150
	}
	forks := 0
	done := 0
	var step func()
	step = func() {
		if done >= ops {
			return
		}
		done++
		r := &regions[rng.Intn(len(regions))]
		switch roll := rng.Intn(100); {
		case roll < 2 && len(regions) > 1:
			// Munmap a region (with misses possibly in flight — the unmap
			// barrier path), then map a fresh one so the walk keeps width.
			last := regions[len(regions)-1]
			regions = regions[:len(regions)-1]
			s.K.Munmap(th, last.va, func() {
				mapOne(128 + rng.Intn(128))
				step()
			})
		case roll < 5:
			s.K.Msync(th, r.va, step)
		case roll < 7 && forks < 2:
			// Fork drops the fast flag and rewrites LBA PTEs; it is
			// synchronous control-path work.
			forks++
			s.K.Fork(s.Proc)
			step()
		default:
			va := r.va + pagetable.VAddr(rng.Intn(r.pages))*4096
			s.K.Access(th, va, rng.Intn(3) == 0, func(mmu.Result) { step() })
		}
	}
	step()
	s.RunWhile(func() bool { return done < ops })
	if done < ops {
		t.Fatalf("walk stalled at %d/%d ops (lost completion?)", done, ops)
	}
	// Drain background writebacks, retries and daemon work before auditing.
	s.RunFor(50 * sim.Millisecond)
	if vs := System(s); len(vs) != 0 {
		t.Fatalf("seed %d: invariant violations after %d ops:\n%v", seed, ops, vs)
	}
	rec := s.Recovery()
	if rec.InjectedTransient+rec.InjectedUECC+rec.InjectedDrops == 0 {
		t.Fatalf("seed %d: no faults injected; the property run is not exercising error paths", seed)
	}
}
