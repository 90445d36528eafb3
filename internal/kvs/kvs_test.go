package kvs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
)

func testSystem(t *testing.T, scheme kernel.Scheme) *core.System {
	t.Helper()
	cfg := core.DefaultConfig(scheme)
	cfg.Cores = 4
	cfg.MemoryBytes = 16 << 20
	cfg.FSBlocks = 1 << 16
	cfg.DeviceJitter = false
	cfg.Kernel.KptedPeriod = 2 * sim.Millisecond
	return cfg.Build()
}

func mkStore(t *testing.T, sys *core.System, keys uint64) *Store {
	t.Helper()
	st, err := Create(sys.K, sys.FS, sys.Proc, "db", keys, 0, 0, sys.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runUntil(sys *core.System, done *bool) {
	sys.RunWhile(func() bool { return !*done })
}

func TestRecordEncodeValidate(t *testing.T) {
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, 42, 7)
	v, err := ValidateRecord(buf, 42)
	if err != nil || v != 7 {
		t.Fatalf("validate: %v %d", err, v)
	}
	if _, err := ValidateRecord(buf, 43); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong key accepted: %v", err)
	}
	buf[100] ^= 1
	if _, err := ValidateRecord(buf, 42); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip accepted: %v", err)
	}
}

// TestRecordEveryBitFlipCorrupts flips each of the record's 32,768 bits
// in turn, header and payload alike: every flip must fail validation.
func TestRecordEveryBitFlipCorrupts(t *testing.T) {
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, 42, 7)
	for bit := 0; bit < RecordSize*8; bit++ {
		buf[bit/8] ^= 1 << (bit % 8)
		if _, err := ValidateRecord(buf, 42); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip of bit %d accepted: %v", bit, err)
		}
		buf[bit/8] ^= 1 << (bit % 8)
	}
	if _, err := ValidateRecord(buf, 42); err != nil {
		t.Fatalf("restored record rejected: %v", err)
	}
}

// TestRecordTornAndMisplacedFail covers the two corruptions a bit flip does
// not: a torn write (the header of version v+1 over the payload of version
// v) and a record read back under the wrong key.
func TestRecordTornAndMisplacedFail(t *testing.T) {
	old := make([]byte, RecordSize)
	EncodeRecord(old, 42, 7)
	torn := make([]byte, RecordSize)
	EncodeRecord(torn, 42, 8)
	copy(torn[headerSize:], old[headerSize:])
	if _, err := ValidateRecord(torn, 42); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn record accepted: %v", err)
	}
	for _, key := range []uint64{0, 41, 43, 42 ^ 1<<63} {
		if _, err := ValidateRecord(old, key); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record of key 42 accepted under key %d: %v", key, err)
		}
	}
}

// TestRecordPayloadPinned pins the payload bytes of one record: the
// SHA-256 was taken from the FNV-checksummed encoder this one replaced, so
// it shows that only the header's check word changed.
func TestRecordPayloadPinned(t *testing.T) {
	const want = "4c407893ab7919b7b5f8404788df367937ccb0420f51d699e7cafe61bc973af5"
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, 42, 7)
	sum := sha256.Sum256(buf[headerSize:])
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("payload SHA-256 = %s, want %s", got, want)
	}
	if k, v := binary.LittleEndian.Uint64(buf[0:]), binary.LittleEndian.Uint64(buf[8:]); k != 42 || v != 7 {
		t.Fatalf("header (key, version) = (%d, %d), want (42, 7)", k, v)
	}
}

// TestRecordCodecAllocFree pins EncodeRecord and a successful
// ValidateRecord at zero allocations.
func TestRecordCodecAllocFree(t *testing.T) {
	buf := make([]byte, RecordSize)
	if n := testing.AllocsPerRun(100, func() { EncodeRecord(buf, 42, 7) }); n != 0 {
		t.Fatalf("EncodeRecord: %v allocs/op, want 0", n)
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = ValidateRecord(buf, 42) }); n != 0 || err != nil {
		t.Fatalf("ValidateRecord: %v allocs/op (err %v), want 0", n, err)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	buf := make([]byte, RecordSize)
	f := func(key, version uint64) bool {
		EncodeRecord(buf, key, version)
		v, err := ValidateRecord(buf, key)
		return err == nil && v == version
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGetColdRecordAllSchemes(t *testing.T) {
	for _, scheme := range []kernel.Scheme{kernel.OSDP, kernel.SWDP, kernel.HWDP} {
		sys := testSystem(t, scheme)
		st := mkStore(t, sys, 256)
		th := sys.WorkloadThread(0)
		buf := make([]byte, RecordSize)
		done := false
		st.Get(th, 123, buf, func(v uint64, err error) {
			if err != nil {
				t.Errorf("%v: get: %v", scheme, err)
			}
			if v != 0 {
				t.Errorf("%v: version = %d", scheme, v)
			}
			done = true
		})
		runUntil(sys, &done)
		if !done {
			t.Fatalf("%v: get hung", scheme)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 128)
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	done := false
	st.Put(th, 7, 99, buf, func(err error) {
		if err != nil {
			t.Error(err)
		}
		st.Get(th, 7, buf, func(v uint64, err error) {
			if err != nil || v != 99 {
				t.Errorf("get after put: v=%d err=%v", v, err)
			}
			done = true
		})
	})
	runUntil(sys, &done)
	if !done {
		t.Fatal("hung")
	}
}

func TestReadModifyWrite(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 64)
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	done := false
	st.ReadModifyWrite(th, 5, buf, func(err error) {
		if err != nil {
			t.Error(err)
		}
		st.Get(th, 5, buf, func(v uint64, err error) {
			if err != nil || v != 1 {
				t.Errorf("rmw result: v=%d err=%v", v, err)
			}
			done = true
		})
	})
	runUntil(sys, &done)
	if !done {
		t.Fatal("hung")
	}
}

func TestScan(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 64)
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	done := false
	st.Scan(th, 10, 8, buf, func(n int, err error) {
		if err != nil || n != 8 {
			t.Errorf("scan: n=%d err=%v", n, err)
		}
		done = true
	})
	runUntil(sys, &done)
	if !done {
		t.Fatal("hung")
	}
	// Scan clipped at the end of the keyspace.
	done = false
	st.Scan(th, 60, 100, buf, func(n int, err error) {
		if err != nil || n != 4 {
			t.Errorf("clipped scan: n=%d err=%v", n, err)
		}
		done = true
	})
	runUntil(sys, &done)
}

func TestBadKey(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 8)
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	gotGet, gotPut := false, false
	st.Get(th, 8, buf, func(_ uint64, err error) {
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("get err = %v", err)
		}
		gotGet = true
	})
	st.Put(th, 99, 1, buf, func(err error) {
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("put err = %v", err)
		}
		gotPut = true
	})
	if !gotGet || !gotPut {
		t.Fatal("bad-key callbacks not synchronous")
	}
}

func TestDataSurvivesEvictionPressure(t *testing.T) {
	// Store bigger than memory: every record re-read after pressure must
	// still validate, including updated ones (writeback + refault).
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 8192) // 32 MiB store, 16 MiB memory
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	rng := sim.NewRand(5)
	writes := map[uint64]uint64{}
	ops := 0
	done := false
	var step func()
	step = func() {
		if ops >= 5000 {
			done = true
			return
		}
		ops++
		key := rng.Uint64() % 8192
		if rng.Intn(3) == 0 {
			v := writes[key] + 1
			writes[key] = v
			st.Put(th, key, v, buf, func(err error) {
				if err != nil {
					t.Error(err)
				}
				step()
			})
		} else {
			st.Get(th, key, buf, func(v uint64, err error) {
				if err != nil {
					t.Errorf("op %d key %d: %v", ops, key, err)
				}
				if want := writes[key]; v != want {
					t.Errorf("key %d version %d, want %d", key, v, want)
				}
				step()
			})
		}
	}
	step()
	runUntil(sys, &done)
	if !done {
		t.Fatal("hung")
	}
	if sys.K.Stats().Evictions == 0 {
		t.Fatal("test intended to create eviction pressure but did not")
	}
}
