// NoSQL server scenario: a RocksDB-style record store whose table file is
// memory-mapped with the paper's fast-mmap flag, serving a YCSB-C (read
// only, zipfian) workload with the dataset twice the size of memory — the
// exact deployment the paper's introduction motivates. The same run is
// repeated under OSDP and HWDP and the throughput gain reported.
package main

import (
	"fmt"

	"hwdp"
)

func main() {
	const (
		memMB   = 32
		keys    = 16384 // 64 MiB of 4 KiB records = 2x memory
		threads = 4
		ops     = 4000
	)
	fmt.Printf("YCSB-C on a %d-record store (2:1 dataset:memory), %d threads\n\n",
		keys, threads)

	run := func(scheme hwdp.Scheme) hwdp.YCSBResult {
		sys, err := hwdp.New(hwdp.Config{Scheme: scheme, MemoryMB: memMB, Seed: 42})
		if err != nil {
			panic(err)
		}
		res, err := sys.RunYCSB('C', threads, ops, keys)
		if err != nil {
			panic(err)
		}
		st := sys.Stats()
		fmt.Printf("%v:\n", scheme)
		fmt.Printf("  throughput   %.0f ops/s\n", res.Throughput)
		fmt.Printf("  mean latency %v\n", res.MeanLatency)
		fmt.Printf("  user IPC     %.2f\n", res.UserIPC)
		fmt.Printf("  page misses  hardware=%d, OS faults=%d\n", st.HWMisses, st.OSFaults)
		fmt.Printf("  memory       evictions=%d, kpted syncs=%d\n\n", st.Evictions, st.KptedSyncs)
		if res.Errors > 0 {
			panic("corrupt reads — data path broken")
		}
		return res
	}

	osdp := run(hwdp.OSDP)
	hw := run(hwdp.HWDP)
	fmt.Printf("HWDP throughput gain: +%.1f%% (paper: up to +27.3%% for YCSB-C)\n",
		100*(hw.Throughput/osdp.Throughput-1))
	fmt.Printf("HWDP user-IPC gain:   +%.1f%% (paper: up to +7.0%%)\n",
		100*(hw.UserIPC/osdp.UserIPC-1))
}
