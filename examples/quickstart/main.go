// Quickstart: build one machine per demand-paging scheme, take a single
// cold page miss on each, and print the end-to-end latency — the paper's
// headline comparison in five lines of API.
package main

import (
	"fmt"

	"hwdp"
)

func main() {
	fmt.Println("One cold 4 KiB page miss on a Z-SSD, by demand-paging scheme:")
	var osdp, hw hwdp.Duration
	for _, scheme := range []hwdp.Scheme{hwdp.OSDP, hwdp.SWOnly, hwdp.HWDP} {
		sys, err := hwdp.New(hwdp.Config{
			Scheme:        scheme,
			MemoryMB:      32,
			Deterministic: true, // exact component latencies
		})
		if err != nil {
			panic(err)
		}
		lat, err := sys.ColdPageLatency()
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-8v %v\n", scheme, lat)
		switch scheme {
		case hwdp.OSDP:
			osdp = lat
		case hwdp.HWDP:
			hw = lat
		}
	}
	fmt.Printf("\nHWDP reduces the demand-paging latency by %.1f%% (paper: 37.0%% on FIO,\n",
		100*(1-float64(hw)/float64(osdp)))
	fmt.Println("~43% on the raw fault), by handling the miss in hardware: the pipeline")
	fmt.Println("stalls while the SMU fetches the block over NVMe — no exception, no")
	fmt.Println("context switch, no kernel I/O stack on the critical path.")
}
