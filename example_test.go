package hwdp_test

import (
	"fmt"

	"hwdp"
)

// The simulation is fully deterministic, so these examples assert exact
// latencies: one cold 4 KiB page miss on the Z-SSD profile costs 19.72 µs
// through the OS fault path (doorbell and interrupt wire latencies
// included) and 11.05 µs through the SMU.

func Example_schemes() {
	for _, scheme := range []hwdp.Scheme{hwdp.OSDP, hwdp.SWOnly, hwdp.HWDP} {
		sys, err := hwdp.New(hwdp.Config{Scheme: scheme, MemoryMB: 16, Deterministic: true})
		if err != nil {
			panic(err)
		}
		lat, err := sys.ColdPageLatency()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8v %v\n", scheme, lat)
	}
	// Output:
	// OSDP     19.72us
	// SW-only  13.00us
	// HWDP     11.05us
}

func Example_devices() {
	for _, dev := range []hwdp.Device{hwdp.ZSSD, hwdp.OptaneSSD, hwdp.OptaneDCPMM} {
		sys, err := hwdp.New(hwdp.Config{
			Scheme: hwdp.HWDP, Device: dev, MemoryMB: 16, Deterministic: true,
		})
		if err != nil {
			panic(err)
		}
		lat, err := sys.ColdPageLatency()
		if err != nil {
			panic(err)
		}
		fmt.Println(lat)
	}
	// Output:
	// 11.05us
	// 6.65us
	// 2.25us
}

func ExampleSystem_CreateStore() {
	sys, err := hwdp.New(hwdp.Config{Scheme: hwdp.HWDP, MemoryMB: 16, Deterministic: true})
	if err != nil {
		panic(err)
	}
	db, err := sys.CreateStore("records", 1024)
	if err != nil {
		panic(err)
	}
	if err := db.Put(7, 3); err != nil {
		panic(err)
	}
	_, version, err := db.Get(7)
	if err != nil {
		panic(err)
	}
	fmt.Println("version:", version)
	// Output:
	// version: 3
}

func ExampleSystem_MmapAnon() {
	sys, err := hwdp.New(hwdp.Config{Scheme: hwdp.HWDP, MemoryMB: 16, Deterministic: true})
	if err != nil {
		panic(err)
	}
	heap, err := sys.MmapAnon(32)
	if err != nil {
		panic(err)
	}
	if err := heap.Write(12345, []byte("hello")); err != nil {
		panic(err)
	}
	buf := make([]byte, 5)
	if err := heap.Read(12345, buf); err != nil {
		panic(err)
	}
	fmt.Printf("%s, zero-fills: %d > 0\n", buf, min1(sys.Stats().AnonZeroFills))
	// Output:
	// hello, zero-fills: 1 > 0
}

func min1(v uint64) uint64 {
	if v > 1 {
		return 1
	}
	return v
}
