// SMT co-scheduling scenario (the paper's Fig. 16): an I/O-bound FIO
// thread and a CPU-bound compute thread share the two hardware threads of
// one physical core. Under OSDP the FIO thread's kernel fault handling
// competes for the core's issue slots; under HWDP the FIO thread's
// pipeline *stalls* during misses, leaving the whole core to the compute
// thread — so both get faster.
package main

import (
	"fmt"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
	"hwdp/internal/workload"
)

func main() {
	const durMS = 30
	fmt.Printf("FIO + compute kernel pinned to one physical core, %d ms:\n\n", durMS)

	type outcome struct {
		fioOps  uint64
		fioTput float64
		specIPC float64
	}
	run := func(scheme kernel.Scheme) outcome {
		cfg := core.DefaultConfig(scheme)
		cfg.MemoryBytes = 32 << 20
		cfg.Seed = 3
		sys, err := core.NewSystem(cfg)
		if err != nil {
			panic(err)
		}
		fio, err := workload.SetupFIO(sys, "fio.dat", 16384, sys.FastFlags())
		if err != nil {
			panic(err)
		}
		spec := workload.SPECKernels(sys)[0] // mcf-like
		a, b := sys.SMTPair(0)
		rs := workload.RunMixed(sys, []workload.Assignment{
			{Th: a, W: fio},
			{Th: b, W: spec},
		}, workload.RunOptions{Duration: durMS * sim.Millisecond})
		return outcome{
			fioOps:  rs[0].Ops,
			fioTput: rs[0].Throughput(),
			specIPC: sys.CPU.Thread(1).Counters.UserIPC(),
		}
	}

	osdp := run(kernel.OSDP)
	hw := run(kernel.HWDP)
	fmt.Printf("  %-22s %12s %12s\n", "", "OSDP", "HWDP")
	fmt.Printf("  %-22s %12.0f %12.0f\n", "FIO throughput (op/s)", osdp.fioTput, hw.fioTput)
	fmt.Printf("  %-22s %12.2f %12.2f\n", "compute thread IPC", osdp.specIPC, hw.specIPC)
	fmt.Printf("\n  FIO speedup:        %.2fx   (paper: >1.72x)\n", hw.fioTput/osdp.fioTput)
	fmt.Printf("  compute IPC gain:   +%.1f%%  (paper: SPEC IPC up under HWDP)\n",
		100*(hw.specIPC/osdp.specIPC-1))
}
