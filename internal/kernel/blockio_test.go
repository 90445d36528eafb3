package kernel

import (
	"testing"

	"hwdp/internal/nvme"
)

// TestBlockIORoundTripAllocationFree pins the OS block layer's steady-state
// cost. Every OS I/O arms the default 10 ms BlockTimeout watchdog and
// cancels it on completion; the round trip (carrier, watchdog, device,
// completion interrupt) must allocate nothing once warm, and a canceled
// watchdog must leave the event queue at completion instead of lingering
// until its deadline.
func TestBlockIORoundTripAllocationFree(t *testing.T) {
	r := newRig(t, 16<<20, 64, withScheme(OSDP))
	if r.k.cfg.BlockTimeout == 0 {
		t.Fatal("default config arms no block-layer timeout")
	}
	_, f := r.mmapFile(t, "bio", 16, MmapFlags{})
	blk, err := r.fsys.Block(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := r.mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	st := r.k.storageFor(blk)
	done := false
	status := nvme.StatusSuccess
	onDone := func(s uint16) { done, status = true, s }
	roundTrip := func() {
		done = false
		r.k.submitIORetry(st, r.th.HW, nvme.OpRead, blk.LBA, frame, nil, onDone)
		for !done {
			if !r.eng.Step() {
				t.Fatal("engine drained before the I/O completed")
			}
		}
		if status != nvme.StatusSuccess {
			t.Fatalf("status = %#x", status)
		}
	}

	roundTrip() // warm the queue pair, the carrier pool and the engine
	live := r.eng.Pending()
	const ios = 700
	for i := 0; i < ios; i++ {
		roundTrip()
	}
	if got := r.eng.Pending(); got > live {
		t.Fatalf("Pending() = %d after %d I/Os, want at most %d (the daemons' live timers)", got, ios, live)
	}
	if got := testing.AllocsPerRun(200, roundTrip); got != 0 {
		t.Fatalf("block-layer round trip allocates %.1f objects/op, want 0", got)
	}
	if n := r.k.Stats().BlockTimeouts; n != 0 {
		t.Fatalf("BlockTimeouts = %d, want 0", n)
	}
}
