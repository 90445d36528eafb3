// Package fs is the storage-layout substrate: a minimal extent-style file
// system that maps file pages to logical block addresses on one NVMe
// namespace. It is the component that "bridges the semantic gap between CPU
// and kernel" — the OS consults it to LBA-augment PTEs (Section IV-B), and
// its block-remap hook models copy-on-write/log-structured file systems
// that must patch LBA-augmented PTEs when a file's block mapping changes.
//
// File contents are deterministic: each file carries an initializer that
// generates any page's bytes on demand, and explicit writes override pages.
// This lets the simulation address terabyte-scale layouts while only paying
// host memory for blocks actually written.
package fs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hwdp/internal/mem"
	"hwdp/internal/pagetable"
)

// PageBytes is the file page size (one 4 KiB block per page: the simulated
// namespaces use 4 KiB logical blocks, so a page is exactly one block).
const PageBytes = mem.PageSize

// Initializer produces the pristine content of file page `page` into buf
// (len PageBytes).
type Initializer func(page int, buf []byte)

// ZeroInit is the initializer for all-zero files.
func ZeroInit(page int, buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
}

// SeededInit returns an initializer generating pseudorandom page contents
// from a seed; used by FIO-style raw files.
func SeededInit(seed uint64) Initializer {
	// The fill is a named function, not the closure's body: where a caller
	// inlines SeededInit, the copy of the closure the compiler makes keeps
	// PutUint64 out of line (go1.24), which doubles the fill's cost.
	return func(page int, buf []byte) { seededFill(seed, page, buf) }
}

func seededFill(seed uint64, page int, buf []byte) {
	s := seed ^ (uint64(page)+1)*0x9e3779b97f4a7c15
	for i := 0; i < len(buf); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if i+8 <= len(buf) {
			binary.LittleEndian.PutUint64(buf[i:], s)
			continue
		}
		// A partial last word keeps its low-order bytes.
		for v := s; i < len(buf); i++ {
			buf[i] = byte(v)
			v >>= 8
		}
	}
}

// File is one file: a size and a per-page block mapping.
type File struct {
	Name  string
	pages []uint64 // page index -> LBA
	init  Initializer
	// Marked is set when the file is mapped with fast-mmap so that block
	// remaps are propagated to LBA-augmented PTEs (Section IV-B: "when a
	// file is mapped using LBA augmentation, the file is marked").
	Marked bool
}

// Pages returns the file length in pages.
func (f *File) Pages() int { return len(f.pages) }

// ErrNoSpace is returned when the namespace has no free blocks.
var ErrNoSpace = errors.New("fs: out of space")

// ErrBadPage is returned for out-of-range page indices.
var ErrBadPage = errors.New("fs: page out of range")

type blockRef struct {
	file *File
	page int
}

// RemapFunc observes block-mapping changes of marked files so the kernel
// can patch non-present LBA-augmented PTEs.
type RemapFunc func(f *File, page int, newBlock pagetable.BlockAddr)

// FS is one file system on one namespace of one device.
type FS struct {
	sid     uint8
	devID   uint8
	nsid    uint32
	blocks  uint64
	nextLBA uint64

	// RemapOnWrite turns the file system log-structured: every block
	// write goes to a freshly allocated location and the old block is
	// invalidated — the CoW/LFS behavior (Btrfs/ZFS-style) whose block
	// remaps must be reflected into LBA-augmented PTEs (Section IV-B).
	// Log cleaning is not modeled; the device is sized for the run.
	RemapOnWrite bool

	files     map[string]*File
	byLBA     map[uint64]blockRef
	overrides map[uint64][]byte
	onRemap   RemapFunc

	writes uint64
	remaps uint64
}

// New formats a file system over a namespace of the given capacity (in
// blocks) living at <sid, devID> / nsid.
func New(sid, devID uint8, nsid uint32, blocks uint64) *FS {
	return &FS{
		sid: sid, devID: devID, nsid: nsid, blocks: blocks,
		files:     make(map[string]*File),
		byLBA:     make(map[uint64]blockRef),
		overrides: make(map[uint64][]byte),
	}
}

// NSID returns the namespace the file system lives on.
func (s *FS) NSID() uint32 { return s.nsid }

// OnRemap installs the remap observer (at most one; the kernel).
func (s *FS) OnRemap(fn RemapFunc) { s.onRemap = fn }

// FreeBlocks returns the number of unallocated blocks.
func (s *FS) FreeBlocks() uint64 { return s.blocks - s.nextLBA }

func (s *FS) allocBlock() (uint64, error) {
	if s.nextLBA >= s.blocks {
		return 0, ErrNoSpace
	}
	lba := s.nextLBA
	s.nextLBA++
	return lba, nil
}

// Create allocates a file of the given page count. init may be nil (zero
// content).
func (s *FS) Create(name string, pages int, init Initializer) (*File, error) {
	if _, dup := s.files[name]; dup {
		return nil, fmt.Errorf("fs: file %q exists", name)
	}
	if init == nil {
		init = ZeroInit
	}
	f := &File{Name: name, pages: make([]uint64, pages), init: init}
	for i := 0; i < pages; i++ {
		lba, err := s.allocBlock()
		if err != nil {
			return nil, err
		}
		f.pages[i] = lba
		s.byLBA[lba] = blockRef{f, i}
	}
	s.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (s *FS) Open(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: no such file %q", name)
	}
	return f, nil
}

// Block returns the block address of a file page — what the kernel records
// into an LBA-augmented PTE.
func (s *FS) Block(f *File, page int) (pagetable.BlockAddr, error) {
	if page < 0 || page >= len(f.pages) {
		return pagetable.BlockAddr{}, fmt.Errorf("%w: %s[%d]", ErrBadPage, f.Name, page)
	}
	return pagetable.BlockAddr{SID: s.sid, DeviceID: s.devID, LBA: f.pages[page]}, nil
}

// Remap moves a file page to a freshly allocated block (a CoW or
// log-structured update) and notifies the remap observer if the file is
// marked. It returns the new block address.
func (s *FS) Remap(f *File, page int) (pagetable.BlockAddr, error) {
	if page < 0 || page >= len(f.pages) {
		return pagetable.BlockAddr{}, fmt.Errorf("%w: %s[%d]", ErrBadPage, f.Name, page)
	}
	newLBA, err := s.allocBlock()
	if err != nil {
		return pagetable.BlockAddr{}, err
	}
	old := f.pages[page]
	// Preserve current content across the move.
	if data, ok := s.overrides[old]; ok {
		s.overrides[newLBA] = data
		delete(s.overrides, old)
	} else {
		buf := make([]byte, PageBytes)
		f.init(page, buf)
		s.overrides[newLBA] = buf
	}
	delete(s.byLBA, old)
	f.pages[page] = newLBA
	s.byLBA[newLBA] = blockRef{f, page}
	s.remaps++
	b := pagetable.BlockAddr{SID: s.sid, DeviceID: s.devID, LBA: newLBA}
	if f.Marked && s.onRemap != nil {
		s.onRemap(f, page, b)
	}
	return b, nil
}

// Remaps returns the cumulative remap count.
func (s *FS) Remaps() uint64 { return s.remaps }

// ReadBlock fills buf (len PageBytes) with the content of the block at lba
// — the device's DMA source for reads.
func (s *FS) ReadBlock(lba uint64, buf []byte) error {
	if data, ok := s.overrides[lba]; ok {
		copy(buf, data)
		return nil
	}
	ref, ok := s.byLBA[lba]
	if !ok {
		// Unallocated block: reads return zeros, like a trimmed SSD.
		ZeroInit(0, buf)
		return nil
	}
	ref.file.init(ref.page, buf)
	return nil
}

// WriteBlock stores data (len PageBytes) at lba — the device's DMA sink for
// writes (page writeback). In RemapOnWrite mode the data lands at a newly
// allocated block instead, the file's mapping moves, and marked files get
// their LBA-augmented PTEs patched via the remap observer.
func (s *FS) WriteBlock(lba uint64, data []byte) error {
	if lba >= s.blocks {
		return fmt.Errorf("fs: write beyond device: lba %d", lba)
	}
	s.writes++
	if s.RemapOnWrite {
		if ref, ok := s.byLBA[lba]; ok {
			newLBA, err := s.allocBlock()
			if err != nil {
				return err
			}
			// The old block's buffer moves with the data to the new block.
			buf := s.overrides[lba]
			if buf == nil {
				buf = make([]byte, PageBytes)
			}
			copy(buf, data)
			delete(s.overrides, lba)
			delete(s.byLBA, lba)
			s.overrides[newLBA] = buf
			ref.file.pages[ref.page] = newLBA
			s.byLBA[newLBA] = ref
			s.remaps++
			if ref.file.Marked && s.onRemap != nil {
				s.onRemap(ref.file, ref.page,
					pagetable.BlockAddr{SID: s.sid, DeviceID: s.devID, LBA: newLBA})
			}
			return nil
		}
		// Write to an unmapped block (trimmed): store in place.
	}
	buf := s.overrides[lba]
	if buf == nil {
		buf = make([]byte, PageBytes)
		s.overrides[lba] = buf
	}
	copy(buf, data)
	return nil
}

// Writes returns the cumulative block-write count.
func (s *FS) Writes() uint64 { return s.writes }
