package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewSizing(t *testing.T) {
	m := New(1 << 20) // 1 MiB = 256 frames
	if m.Frames() != 256 {
		t.Fatalf("frames = %d", m.Frames())
	}
	if m.FreeFrames() != 256 {
		t.Fatalf("free = %d", m.FreeFrames())
	}
}

func TestNewTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(100)
}

func TestAllocFreeCycle(t *testing.T) {
	m := New(4 * PageSize)
	var got []FrameID
	for i := 0; i < 4; i++ {
		f, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	// Low frames first, deterministically.
	for i, f := range got {
		if f != FrameID(i) {
			t.Fatalf("alloc order = %v", got)
		}
	}
	if _, err := m.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want OOM, got %v", err)
	}
	if err := m.Free(got[2]); err != nil {
		t.Fatal(err)
	}
	f, err := m.Alloc()
	if err != nil || f != got[2] {
		t.Fatalf("realloc = %d, %v", f, err)
	}
	if m.Allocs() != 5 || m.Frees() != 1 {
		t.Fatalf("allocs=%d frees=%d", m.Allocs(), m.Frees())
	}
}

func TestDoubleFree(t *testing.T) {
	m := New(2 * PageSize)
	f, _ := m.Alloc()
	if err := m.Free(f); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(f); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("double free: %v", err)
	}
	if err := m.Free(FrameID(9999)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("free of bogus frame: %v", err)
	}
}

func TestAllocN(t *testing.T) {
	m := New(8 * PageSize)
	fs := m.AllocN(5)
	if len(fs) != 5 {
		t.Fatalf("got %d frames", len(fs))
	}
	fs2 := m.AllocN(10) // only 3 left
	if len(fs2) != 3 {
		t.Fatalf("partial AllocN = %d", len(fs2))
	}
	if m.FreeFrames() != 0 {
		t.Fatal("should be empty")
	}
}

func TestDataLazyMaterialization(t *testing.T) {
	m := New(16 * PageSize)
	f, _ := m.Alloc()
	if m.ResidentBuffers() != 0 {
		t.Fatal("no buffer should exist before first touch")
	}
	b, err := m.Data(f)
	if err != nil || len(b) != PageSize {
		t.Fatalf("data: %v len=%d", err, len(b))
	}
	if m.ResidentBuffers() != 1 {
		t.Fatal("buffer not tracked")
	}
	b[0] = 0xAB
	b2, _ := m.Data(f)
	if b2[0] != 0xAB {
		t.Fatal("data not persistent")
	}
	// A freed frame keeps its buffer: the count is of buffers ever
	// materialized, never above Frames().
	_ = m.Free(f)
	if m.ResidentBuffers() != 1 {
		t.Fatalf("after free: %d buffers, want 1", m.ResidentBuffers())
	}
	for i := 0; i < int(m.Frames()); i++ {
		g, _ := m.Alloc()
		_, _ = m.Data(g)
	}
	if m.ResidentBuffers() != int(m.Frames()) {
		t.Fatalf("all touched: %d buffers, want %d", m.ResidentBuffers(), m.Frames())
	}
}

// TestRefillAllocFree pins the recycle path at zero allocations: Free,
// Alloc and Data on a frame that already has a buffer reuse it, and the
// page reads back all zeros.
func TestRefillAllocFree(t *testing.T) {
	m := New(2 * PageSize)
	f, _ := m.Alloc()
	_ = m.Fill(f, func(b []byte) {
		for i := range b {
			b[i] = 0xFF
		}
	})
	var b []byte
	n := testing.AllocsPerRun(100, func() {
		_ = m.Free(f)
		f, _ = m.Alloc()
		b, _ = m.Data(f)
		b[PageSize-1] = 0xFF
	})
	if n != 0 {
		t.Fatalf("Free+Alloc+Data: %v allocs/op, want 0", n)
	}
	_ = m.Free(f)
	f, _ = m.Alloc()
	b, _ = m.Data(f)
	for i, c := range b {
		if c != 0 {
			t.Fatalf("byte %d = %#x after free and realloc, want 0", i, c)
		}
	}
}

func TestDataOfUnallocated(t *testing.T) {
	m := New(2 * PageSize)
	if _, err := m.Data(0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
	if _, err := m.Data(NoFrame); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("NoFrame: %v", err)
	}
}

func TestFreeDropsContents(t *testing.T) {
	m := New(2 * PageSize)
	f, _ := m.Alloc()
	_ = m.Fill(f, func(b []byte) { b[0] = 1 })
	_ = m.Free(f)
	f2, _ := m.Alloc()
	if f2 != f {
		t.Fatalf("expected frame reuse, got %d", f2)
	}
	b, _ := m.Data(f2)
	if b[0] != 0 {
		t.Fatal("contents leaked across free")
	}
}

func TestFill(t *testing.T) {
	m := New(2 * PageSize)
	f, _ := m.Alloc()
	err := m.Fill(f, func(b []byte) {
		for i := range b {
			b[i] = byte(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Data(f)
	if b[255] != 255 {
		t.Fatal("fill did not write")
	}
	if err := m.Fill(FrameID(1), func([]byte) {}); err == nil {
		t.Fatal("fill of unallocated frame should fail")
	}
}

// Property: any sequence of allocs and frees conserves frames — free +
// allocated == total, and no frame is ever handed out twice concurrently.
func TestConservationProperty(t *testing.T) {
	f := func(ops []bool, seed uint64) bool {
		m := New(32 * PageSize)
		held := map[FrameID]bool{}
		s := seed
		for _, alloc := range ops {
			if alloc || len(held) == 0 {
				fr, err := m.Alloc()
				if err != nil {
					if m.FreeFrames() != 0 {
						return false
					}
					continue
				}
				if held[fr] {
					return false // double allocation
				}
				held[fr] = true
			} else {
				// Remove an arbitrary held frame deterministically.
				s = s*6364136223846793005 + 1
				i := int(s % uint64(len(held)))
				var victim FrameID
				for fr := range held {
					if i == 0 {
						victim = fr
						break
					}
					i--
				}
				delete(held, victim)
				if err := m.Free(victim); err != nil {
					return false
				}
			}
			if m.FreeFrames()+uint64(len(held)) != m.Frames() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
