// Package kvs is a minimal NoSQL record store standing in for RocksDB in
// the evaluation (DBBench / YCSB workloads). It keeps fixed-size 4 KiB
// records in a single table file accessed exclusively through the simulated
// memory-mapped I/O path — exactly the deployment the paper targets with
// fast file mmap(): every cold Get is a demand-paging miss.
//
// Records are self-validating: a read checks the key echo and the header
// check word, and verifies the payload by regenerating it from (key,
// version). Every read through the full MMU → SMU/fault-handler → NVMe →
// DMA pipeline so proves end-to-end data integrity, not just timing.
package kvs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
)

// RecordSize is the fixed record size (the paper's workloads use 4 KB
// records).
const RecordSize = fs.PageBytes

const headerSize = 8 + 8 + 8 // key, version, checksum

// PayloadSize is the usable value bytes per record.
const PayloadSize = RecordSize - headerSize

// ErrCorrupt reports a record that failed validation after a read.
var ErrCorrupt = errors.New("kvs: corrupt record")

// ErrBadKey reports an out-of-range key.
var ErrBadKey = errors.New("kvs: key out of range")

// payloadSeed is the first state of the payload's xorshift stream.
func payloadSeed(key, version uint64) uint64 {
	return key*0x9e3779b97f4a7c15 + version*1099511628211 + 1
}

// headerCheck is the header's check word, a mix of (key, version) that is
// one-to-one in version for a fixed key. A flip in the version field
// changes it, and a flip in the check field no longer matches it; the key
// field is checked against the key asked for.
func headerCheck(key, version uint64) uint64 {
	h := (key ^ bits.RotateLeft64(version, 32)) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// xorshift advances the payload stream by one word.
func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// EncodeRecord writes a record for key with the given version into buf
// (at least RecordSize bytes). The payload is a deterministic function of
// (key, version), so any reader can re-derive and verify it.
func EncodeRecord(buf []byte, key, version uint64) {
	payload := buf[headerSize:RecordSize]
	s := payloadSeed(key, version)
	for i := 0; i < len(payload); i += 8 {
		s = xorshift(s)
		binary.LittleEndian.PutUint64(payload[i:], s)
	}
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint64(buf[8:], version)
	binary.LittleEndian.PutUint64(buf[16:], headerCheck(key, version))
}

// ValidateRecord checks that buf holds an intact record for key: the key
// echo and the header check word, then the payload word by word against
// the stream (key, version) regenerates. It returns the record's version,
// or an error wrapping ErrCorrupt.
func ValidateRecord(buf []byte, key uint64) (version uint64, err error) {
	gotKey := binary.LittleEndian.Uint64(buf[0:])
	version = binary.LittleEndian.Uint64(buf[8:])
	if gotKey != key {
		return 0, fmt.Errorf("%w: key %d read %d", ErrCorrupt, key, gotKey)
	}
	if binary.LittleEndian.Uint64(buf[16:]) != headerCheck(key, version) {
		return 0, fmt.Errorf("%w: header check mismatch for key %d", ErrCorrupt, key)
	}
	payload := buf[headerSize:RecordSize]
	s := payloadSeed(key, version)
	for i := 0; i < len(payload); i += 8 {
		s = xorshift(s)
		if binary.LittleEndian.Uint64(payload[i:]) != s {
			return 0, fmt.Errorf("%w: payload mismatch for key %d at byte %d", ErrCorrupt, key, headerSize+i)
		}
	}
	return version, nil
}

// Store is one opened table.
type Store struct {
	k    *kernel.Kernel
	file *fs.File
	base pagetable.VAddr
	keys uint64

	// Write-ahead log: like RocksDB, every update appends a log record
	// before (logically) touching the table. The log is a circular file
	// written with buffered (asynchronous) block writes; its device-write
	// traffic is what degrades read latency in mixed workloads.
	wal     *fs.File
	walSID  uint8
	walDev  uint8
	walHead int
	walLen  int
}

// Create builds the table file (keys records) on the file system and maps
// it into the process with the requested mmap flags — the "database files
// of a NoSQL application are the target of the fast file mmap()".
func Create(k *kernel.Kernel, fsys *fs.FS, p *kernel.Process, name string,
	keys uint64, sid, devID uint8, flags kernel.MmapFlags) (*Store, error) {
	f, err := fsys.Create(name, int(keys), func(page int, buf []byte) {
		EncodeRecord(buf, uint64(page), 0)
	})
	if err != nil {
		return nil, err
	}
	base, err := k.Mmap(p, sid, devID, f, pagetable.Prot{Write: true, User: true}, flags)
	if err != nil {
		return nil, err
	}
	walLen := int(keys/16) + 64
	wal, err := fsys.Create(name+".wal", walLen, nil)
	if err != nil {
		return nil, err
	}
	return &Store{k: k, file: f, base: base, keys: keys,
		wal: wal, walSID: sid, walDev: devID, walLen: walLen}, nil
}

// Keys returns the number of records.
func (s *Store) Keys() uint64 { return s.keys }

// File returns the backing file.
func (s *Store) File() *fs.File { return s.file }

// Base returns the mapped base address.
func (s *Store) Base() pagetable.VAddr { return s.base }

func (s *Store) addr(key uint64) pagetable.VAddr {
	return s.base + pagetable.VAddr(key)*RecordSize
}

// Get reads and validates the record for key. done receives the record
// version and a validation error (nil on success). buf must be RecordSize
// bytes and survives until done.
func (s *Store) Get(th *kernel.Thread, key uint64, buf []byte, done func(version uint64, err error)) {
	if key >= s.keys {
		done(0, fmt.Errorf("%w: %d", ErrBadKey, key))
		return
	}
	s.k.Load(th, s.addr(key), buf[:RecordSize], func(r mmu.Result) {
		if r.Outcome == mmu.OutcomeBadAddr {
			done(0, fmt.Errorf("kvs: unmapped record %d", key))
			return
		}
		v, err := ValidateRecord(buf, key)
		done(v, err)
	})
}

// Put writes a full record for key at the given version: a WAL append
// (buffered device write) followed by the in-place table update through
// the mmap path.
func (s *Store) Put(th *kernel.Thread, key, version uint64, buf []byte, done func(err error)) {
	if key >= s.keys {
		done(fmt.Errorf("%w: %d", ErrBadKey, key))
		return
	}
	page := s.walHead
	s.walHead = (s.walHead + 1) % s.walLen
	s.k.WriteRaw(th, s.walSID, s.walDev, s.wal, page, func() {
		EncodeRecord(buf[:RecordSize], key, version)
		s.k.Store(th, s.addr(key), buf[:RecordSize], func(r mmu.Result) {
			if r.Outcome == mmu.OutcomeBadAddr {
				done(fmt.Errorf("kvs: unmapped record %d", key))
				return
			}
			done(nil)
		})
	})
}

// ReadModifyWrite performs YCSB-F's read-modify-write: Get, bump the
// version, Put.
func (s *Store) ReadModifyWrite(th *kernel.Thread, key uint64, buf []byte, done func(err error)) {
	s.Get(th, key, buf, func(v uint64, err error) {
		if err != nil {
			done(err)
			return
		}
		s.Put(th, key, v+1, buf, done)
	})
}

// Scan reads n consecutive records starting at key (YCSB-E), validating
// each. done receives the number of records scanned and the first error.
func (s *Store) Scan(th *kernel.Thread, key uint64, n int, buf []byte, done func(scanned int, err error)) {
	scanned := 0
	var step func(k uint64)
	step = func(k uint64) {
		if scanned >= n || k >= s.keys {
			done(scanned, nil)
			return
		}
		s.Get(th, k, buf, func(_ uint64, err error) {
			if err != nil {
				done(scanned, err)
				return
			}
			scanned++
			step(k + 1)
		})
	}
	step(key)
}
