package fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"hwdp/internal/pagetable"
)

func TestCreateOpenBlock(t *testing.T) {
	s := New(2, 3, 1, 1000)
	f, err := s.Create("db", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 10 {
		t.Fatalf("pages = %d", f.Pages())
	}
	if s.FreeBlocks() != 990 {
		t.Fatalf("free = %d", s.FreeBlocks())
	}
	got, err := s.Open("db")
	if err != nil || got != f {
		t.Fatalf("open: %v %v", got, err)
	}
	b, err := s.Block(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.SID != 2 || b.DeviceID != 3 {
		t.Fatalf("block addr = %v", b)
	}
	if _, err := s.Block(f, 10); !errors.Is(err, ErrBadPage) {
		t.Fatalf("oob: %v", err)
	}
	if _, err := s.Open("nope"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if _, err := s.Create("db", 1, nil); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestCreateExhaustsSpace(t *testing.T) {
	s := New(0, 0, 1, 5)
	if _, err := s.Create("big", 6, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
}

func TestUniqueBlockAssignment(t *testing.T) {
	s := New(0, 0, 1, 100)
	f1, _ := s.Create("a", 30, nil)
	f2, _ := s.Create("b", 30, nil)
	seen := map[uint64]bool{}
	for _, f := range []*File{f1, f2} {
		for i := 0; i < f.Pages(); i++ {
			b, _ := s.Block(f, i)
			if seen[b.LBA] {
				t.Fatalf("lba %d assigned twice", b.LBA)
			}
			seen[b.LBA] = true
		}
	}
}

func TestReadBlockDeterministicContent(t *testing.T) {
	s := New(0, 0, 1, 100)
	f, _ := s.Create("raw", 4, SeededInit(42))
	b, _ := s.Block(f, 2)
	buf1 := make([]byte, PageBytes)
	buf2 := make([]byte, PageBytes)
	_ = s.ReadBlock(b.LBA, buf1)
	_ = s.ReadBlock(b.LBA, buf2)
	if !bytes.Equal(buf1, buf2) {
		t.Fatal("content not deterministic")
	}
	// Different pages differ.
	b3, _ := s.Block(f, 3)
	_ = s.ReadBlock(b3.LBA, buf2)
	if bytes.Equal(buf1, buf2) {
		t.Fatal("pages identical; initializer ignores page index")
	}
}

func TestReadUnallocatedBlockIsZero(t *testing.T) {
	s := New(0, 0, 1, 100)
	buf := make([]byte, PageBytes)
	buf[0] = 0xFF
	if err := s.ReadBlock(99, buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range buf {
		if v != 0 {
			t.Fatal("trimmed block not zero")
		}
	}
}

func TestWriteThenReadBack(t *testing.T) {
	s := New(0, 0, 1, 100)
	f, _ := s.Create("raw", 2, SeededInit(1))
	b, _ := s.Block(f, 0)
	data := make([]byte, PageBytes)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := s.WriteBlock(b.LBA, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageBytes)
	_ = s.ReadBlock(b.LBA, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read-after-write mismatch")
	}
	if s.Writes() != 1 {
		t.Fatalf("writes = %d", s.Writes())
	}
	if err := s.WriteBlock(1000, data); err == nil {
		t.Fatal("write beyond device succeeded")
	}
}

func TestWriteBlockCopiesData(t *testing.T) {
	s := New(0, 0, 1, 100)
	data := make([]byte, PageBytes)
	data[0] = 1
	_ = s.WriteBlock(5, data)
	data[0] = 99 // caller reuses its buffer
	got := make([]byte, PageBytes)
	_ = s.ReadBlock(5, got)
	if got[0] != 1 {
		t.Fatal("WriteBlock aliased caller buffer")
	}
}

// TestWriteBlockOverwriteAllocFree pins the steady-state write of an LBA
// that already holds written data at zero allocations: the block's buffer
// is reused, and a read returns the latest write.
func TestWriteBlockOverwriteAllocFree(t *testing.T) {
	s := New(0, 0, 1, 100)
	f, _ := s.Create("raw", 2, SeededInit(1))
	b, _ := s.Block(f, 1)
	data := make([]byte, PageBytes)
	if err := s.WriteBlock(b.LBA, data); err != nil {
		t.Fatal(err)
	}
	var err error
	n := testing.AllocsPerRun(100, func() {
		data[0]++
		err = s.WriteBlock(b.LBA, data)
	})
	if n != 0 || err != nil {
		t.Fatalf("WriteBlock over an override: %v allocs/op (err %v), want 0", n, err)
	}
	got := make([]byte, PageBytes)
	_ = s.ReadBlock(b.LBA, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back byte 0 = %d, want the latest write %d", got[0], data[0])
	}
}

// TestSeededInitPinned pins the bytes SeededInit generates: the SHA-256 was
// taken from the byte-at-a-time generator the word fill replaced. The odd
// 13-byte buffer covers the partial last word.
func TestSeededInitPinned(t *testing.T) {
	const want = "b41040e1a4d595dfc1a4eb1c7022e1f8a0175d58cb32280574ed352bc709ee23"
	h := sha256.New()
	for _, seed := range []uint64{1, 0xdead} {
		init := SeededInit(seed)
		for _, page := range []int{0, 1, 2, 7, 4095, 1 << 20} {
			buf := make([]byte, PageBytes)
			init(page, buf)
			h.Write(buf)
		}
		odd := make([]byte, 13)
		init(3, odd)
		h.Write(odd)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("SeededInit SHA-256 = %s, want %s", got, want)
	}
}

func TestRemapPreservesContentAndNotifies(t *testing.T) {
	s := New(1, 2, 1, 100)
	f, _ := s.Create("db", 3, SeededInit(9))
	f.Marked = true
	var notified []pagetable.BlockAddr
	s.OnRemap(func(file *File, page int, nb pagetable.BlockAddr) {
		if file != f || page != 1 {
			t.Fatalf("remap cb: %v %d", file.Name, page)
		}
		notified = append(notified, nb)
	})
	before := make([]byte, PageBytes)
	old, _ := s.Block(f, 1)
	_ = s.ReadBlock(old.LBA, before)

	nb, err := s.Remap(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nb.LBA == old.LBA {
		t.Fatal("remap did not move the block")
	}
	if len(notified) != 1 || notified[0] != nb {
		t.Fatalf("notify = %v", notified)
	}
	after := make([]byte, PageBytes)
	_ = s.ReadBlock(nb.LBA, after)
	if !bytes.Equal(before, after) {
		t.Fatal("remap lost content")
	}
	if s.Remaps() != 1 {
		t.Fatal("remap count")
	}
}

func TestRemapUnmarkedFileDoesNotNotify(t *testing.T) {
	s := New(0, 0, 1, 100)
	f, _ := s.Create("db", 1, nil)
	called := false
	s.OnRemap(func(*File, int, pagetable.BlockAddr) { called = true })
	if _, err := s.Remap(f, 0); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("unmarked file triggered remap callback")
	}
}

func TestRemapPreservesWrittenContent(t *testing.T) {
	s := New(0, 0, 1, 100)
	f, _ := s.Create("db", 1, SeededInit(3))
	b, _ := s.Block(f, 0)
	data := make([]byte, PageBytes)
	data[100] = 0xAA
	_ = s.WriteBlock(b.LBA, data)
	nb, _ := s.Remap(f, 0)
	got := make([]byte, PageBytes)
	_ = s.ReadBlock(nb.LBA, got)
	if got[100] != 0xAA {
		t.Fatal("written content lost across remap")
	}
	// Old block no longer maps to the file: reads as trimmed.
	_ = s.ReadBlock(b.LBA, got)
	if got[100] != 0 {
		t.Fatal("old block still holds file content")
	}
}

func TestRemapOutOfRange(t *testing.T) {
	s := New(0, 0, 1, 100)
	f, _ := s.Create("db", 1, nil)
	if _, err := s.Remap(f, 5); !errors.Is(err, ErrBadPage) {
		t.Fatalf("err = %v", err)
	}
}

// Property: after any sequence of remaps, every file page maps to a unique
// LBA and content remains the page's logical content.
func TestRemapInvariantProperty(t *testing.T) {
	f := func(pageSeq []uint8) bool {
		s := New(0, 0, 1, 10000)
		file, err := s.Create("f", 16, SeededInit(5))
		if err != nil {
			return false
		}
		want := make([][]byte, 16)
		for i := range want {
			want[i] = make([]byte, PageBytes)
			file.init(i, want[i])
		}
		for _, p := range pageSeq {
			page := int(p % 16)
			if _, err := s.Remap(file, page); err != nil {
				return false
			}
		}
		seen := map[uint64]bool{}
		for i := 0; i < 16; i++ {
			b, _ := s.Block(file, i)
			if seen[b.LBA] {
				return false
			}
			seen[b.LBA] = true
			got := make([]byte, PageBytes)
			_ = s.ReadBlock(b.LBA, got)
			if !bytes.Equal(got, want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapOnWriteMovesBlocks(t *testing.T) {
	s := New(0, 0, 1, 1000)
	s.RemapOnWrite = true
	f, _ := s.Create("lfs", 4, SeededInit(1))
	f.Marked = true
	var patches []pagetable.BlockAddr
	s.OnRemap(func(file *File, page int, nb pagetable.BlockAddr) {
		patches = append(patches, nb)
	})
	old, _ := s.Block(f, 2)
	data := make([]byte, PageBytes)
	data[0] = 0x5A
	if err := s.WriteBlock(old.LBA, data); err != nil {
		t.Fatal(err)
	}
	now, _ := s.Block(f, 2)
	if now.LBA == old.LBA {
		t.Fatal("LFS write did not move the block")
	}
	if len(patches) != 1 || patches[0].LBA != now.LBA {
		t.Fatalf("patches = %v", patches)
	}
	// New location reads the written data; old block is trimmed.
	buf := make([]byte, PageBytes)
	_ = s.ReadBlock(now.LBA, buf)
	if buf[0] != 0x5A {
		t.Fatal("data lost across LFS write")
	}
	_ = s.ReadBlock(old.LBA, buf)
	if buf[0] != 0 {
		t.Fatal("old block still live")
	}
	if s.Remaps() != 1 || s.Writes() != 1 {
		t.Fatalf("remaps=%d writes=%d", s.Remaps(), s.Writes())
	}
	// A second write moves the written block's buffer along: the block
	// it left reads as trimmed, and the newest block holds the new data.
	data[0] = 0x6B
	if err := s.WriteBlock(now.LBA, data); err != nil {
		t.Fatal(err)
	}
	newest, _ := s.Block(f, 2)
	_ = s.ReadBlock(newest.LBA, buf)
	if newest.LBA == now.LBA || buf[0] != 0x6B {
		t.Fatalf("second LFS write: block %d -> %d, byte 0 = %#x", now.LBA, newest.LBA, buf[0])
	}
	_ = s.ReadBlock(now.LBA, buf)
	if buf[0] != 0 {
		t.Fatal("block left by the second write still live")
	}
}

func TestRemapOnWriteUnmappedBlockInPlace(t *testing.T) {
	s := New(0, 0, 1, 1000)
	s.RemapOnWrite = true
	data := make([]byte, PageBytes)
	data[0] = 7
	if err := s.WriteBlock(500, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageBytes)
	_ = s.ReadBlock(500, buf)
	if buf[0] != 7 {
		t.Fatal("in-place write to unmapped block lost")
	}
}

func TestRemapOnWriteSequenceProperty(t *testing.T) {
	// Repeated LFS writes to random pages: mapping stays a bijection and
	// every page reads back its most recent write.
	f2 := func(writes []uint8) bool {
		s := New(0, 0, 1, 100000)
		s.RemapOnWrite = true
		file, err := s.Create("f", 8, SeededInit(9))
		if err != nil {
			return false
		}
		last := map[int]byte{}
		buf := make([]byte, PageBytes)
		for i, w := range writes {
			page := int(w % 8)
			blk, _ := s.Block(file, page)
			buf[0] = byte(i + 1)
			if err := s.WriteBlock(blk.LBA, buf); err != nil {
				return false
			}
			last[page] = byte(i + 1)
		}
		seen := map[uint64]bool{}
		for p := 0; p < 8; p++ {
			blk, _ := s.Block(file, p)
			if seen[blk.LBA] {
				return false
			}
			seen[blk.LBA] = true
			_ = s.ReadBlock(blk.LBA, buf)
			if want, wrote := last[p]; wrote && buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
