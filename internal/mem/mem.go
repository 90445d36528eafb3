// Package mem models the machine's physical memory: a page-frame allocator
// plus lazily materialized frame contents. A frame gets its real 4 KiB
// buffer on first touch, so a simulated 256 MiB machine costs at most
// 256 MiB of host memory and less when part of it is never used. Free keeps
// the buffer and zeroes it, so a frame that is freed and allocated again
// reuses its buffer instead of allocating a new one.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the base page size in bytes (4 KiB, matching the paper's
// experiments; NVMe reads of up to 8 KiB work without a PRP list).
const PageSize = 4096

// FrameID identifies a physical page frame (the PFN).
type FrameID uint64

// NoFrame is the sentinel for "no frame".
const NoFrame FrameID = ^FrameID(0)

// ErrOutOfMemory is returned when no free frame exists.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// ErrBadFrame is returned for operations on invalid or unallocated frames.
var ErrBadFrame = errors.New("mem: invalid frame")

// Memory is the physical memory of one simulated machine.
type Memory struct {
	frames    uint64
	freeList  []FrameID
	allocated []bool
	data      [][]byte // indexed by FrameID; nil until first touch
	buffers   int      // non-nil entries of data

	allocs uint64
	frees  uint64
}

// New creates a memory of the given size in bytes (rounded down to whole
// frames). It panics on a size smaller than one page, which is always a
// configuration bug.
func New(bytes uint64) *Memory {
	n := bytes / PageSize
	if n == 0 {
		panic("mem: memory smaller than one page")
	}
	m := &Memory{
		frames:    n,
		freeList:  make([]FrameID, 0, n),
		allocated: make([]bool, n),
		data:      make([][]byte, n),
	}
	// Push in reverse so low frames are handed out first (deterministic
	// and matches how a fresh kernel consumes its memory map).
	for i := int64(n) - 1; i >= 0; i-- {
		m.freeList = append(m.freeList, FrameID(i))
	}
	return m
}

// Frames returns the total number of page frames.
func (m *Memory) Frames() uint64 { return m.frames }

// FreeFrames returns the number of currently free frames.
func (m *Memory) FreeFrames() uint64 { return uint64(len(m.freeList)) }

// Allocs returns the cumulative number of successful allocations.
func (m *Memory) Allocs() uint64 { return m.allocs }

// Frees returns the cumulative number of frees.
func (m *Memory) Frees() uint64 { return m.frees }

// Alloc takes a free frame. It returns ErrOutOfMemory when memory is
// exhausted, which the kernel turns into page replacement.
func (m *Memory) Alloc() (FrameID, error) {
	if len(m.freeList) == 0 {
		return NoFrame, ErrOutOfMemory
	}
	f := m.freeList[len(m.freeList)-1]
	m.freeList = m.freeList[:len(m.freeList)-1]
	m.allocated[f] = true
	m.allocs++
	return f, nil
}

// AllocN takes up to n free frames, returning however many were available.
// The kernel uses it to refill the SMU free-page queue in batch.
func (m *Memory) AllocN(n int) []FrameID {
	if n > len(m.freeList) {
		n = len(m.freeList)
	}
	out := make([]FrameID, 0, n)
	for i := 0; i < n; i++ {
		f, err := m.Alloc()
		if err != nil {
			break
		}
		out = append(out, f)
	}
	return out
}

// Free returns a frame to the allocator and zeroes its contents. The
// buffer stays with the frame for its next allocation.
func (m *Memory) Free(f FrameID) error {
	if uint64(f) >= m.frames || !m.allocated[f] {
		return fmt.Errorf("%w: free of %d", ErrBadFrame, f)
	}
	m.allocated[f] = false
	clear(m.data[f])
	m.freeList = append(m.freeList, f)
	m.frees++
	return nil
}

// Allocated reports whether the frame is currently allocated.
func (m *Memory) Allocated(f FrameID) bool {
	return uint64(f) < m.frames && m.allocated[f]
}

// Data returns the frame's 4 KiB buffer, materializing it zero-filled on
// first access. The frame must be allocated.
func (m *Memory) Data(f FrameID) ([]byte, error) {
	if !m.Allocated(f) {
		return nil, fmt.Errorf("%w: data of %d", ErrBadFrame, f)
	}
	b := m.data[f]
	if b == nil {
		b = make([]byte, PageSize)
		m.data[f] = b
		m.buffers++
	}
	return b, nil
}

// Fill overwrites the frame's contents via gen, which receives the (already
// materialized) buffer. The device model uses it to deposit DMA data.
func (m *Memory) Fill(f FrameID, gen func(buf []byte)) error {
	b, err := m.Data(f)
	if err != nil {
		return err
	}
	gen(b)
	return nil
}

// ResidentBuffers returns how many frames have ever materialized a buffer,
// at most Frames() (a host-memory usage metric, not a simulation quantity).
// Freed frames keep their buffers, so the count never falls.
func (m *Memory) ResidentBuffers() int { return m.buffers }
