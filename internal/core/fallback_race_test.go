package core_test

import (
	"testing"

	"hwdp/internal/check"
	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

// Regression test for the SMU free-queue-empty fallback racing the
// background refill threads. Eight workload threads stream cold anonymous
// misses through an 8-entry free queue while kpoold refills it every
// 100 us and kswapd reclaims below the watermarks (the region is 1.5x
// physical memory, so eviction runs the whole time). The miss rate far
// exceeds the refill rate, so the queue drains repeatedly and misses
// bounce to the OS fault path while refilled frames land between and
// during bounces — the exact interleaving that once double-installed a
// PTE and leaked the loser's frame. Every access must complete, the
// bounce ledgers must agree across the MMU and kernel layers, both
// refill sources must have engaged, and the machine must audit clean.
func TestFallbackRacesConcurrentRefill(t *testing.T) {
	cfg := core.DefaultConfig(kernel.HWDP)
	cfg.MemoryBytes = 4 << 20 // 1024 frames
	cfg.FSBlocks = 1 << 16
	cfg.DeviceJitter = false
	cfg.FreeQueueDepth = 8 // clamp floor: one burst of misses drains it
	cfg.Kernel.KpooldPeriod = 100 * sim.Microsecond
	cfg.Kernel.KswapdPeriod = 200 * sim.Microsecond
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const (
		threads = 8
		passes  = 2 // second pass re-faults what kswapd evicted
	)
	frames := int(sys.Mem.Frames())
	pages := frames + frames/2
	perThread := pages / threads
	prot := pagetable.Prot{Write: true, User: true}
	base, err := sys.K.MmapAnon(sys.Proc, 0, 0, pages, prot, true)
	if err != nil {
		t.Fatal(err)
	}

	// Each thread walks its own chunk, issuing the next access from the
	// previous one's completion: up to 8 misses in flight against the
	// 8-entry queue at all times.
	remaining := threads
	for ti := 0; ti < threads; ti++ {
		th := sys.WorkloadThread(ti)
		lo := ti * perThread
		idx, pass := 0, 0
		var step func(mmu.Result)
		step = func(mmu.Result) {
			if idx == perThread {
				idx, pass = 0, pass+1
				if pass == passes {
					remaining--
					return
				}
			}
			va := base + pagetable.VAddr(lo+idx)*4096
			write := idx%3 == 0
			idx++
			sys.K.Access(th, va, write, step)
		}
		step(mmu.Result{})
	}
	sys.RunWhile(func() bool { return remaining > 0 })
	if remaining != 0 {
		t.Fatalf("%d threads never finished", remaining)
	}

	var noFree uint64
	for _, u := range sys.SMUs {
		noFree += u.Stats().NoFreePage
	}
	ks := sys.K.Stats()
	ms := sys.MMU.Stats()
	if noFree == 0 {
		t.Fatal("free queue never drained; the race was not exercised")
	}
	if ks.FaultRefills == 0 {
		t.Fatal("fault-path refill never ran")
	}
	if ks.KpooldFrames == 0 {
		t.Fatal("kpoold never refilled concurrently")
	}
	if ks.Evictions == 0 {
		t.Fatal("kswapd never reclaimed despite 1.5x oversubscription")
	}
	// The MMU counts every bounced walk; the kernel counts once per page
	// (page-lock and PMSHR coalescing collapse the duplicates), so the
	// kernel's ledger is bounded by the MMU's.
	if ks.HWBounceFaults == 0 || ks.HWBounceFaults > ms.HWBounced {
		t.Fatalf("bounce ledgers inconsistent: kernel %d, mmu %d",
			ks.HWBounceFaults, ms.HWBounced)
	}

	// Settle in-flight writebacks, then balance the frame ledger and run
	// the full structural audit.
	leaked := func() int {
		outstanding := int(sys.Mem.Allocs() - sys.Mem.Frees())
		accounted := sys.K.AccountedFrames()
		for _, u := range sys.SMUs {
			accounted += u.FramesHeld()
		}
		return outstanding - accounted
	}
	for i := 0; i < 50 && leaked() != 0; i++ {
		sys.RunFor(2 * sim.Millisecond)
	}
	if n := leaked(); n != 0 {
		t.Fatalf("%d frames leaked", n)
	}
	if vs := check.System(sys); len(vs) != 0 {
		t.Fatalf("post-run audit violations: %v", vs)
	}
}
