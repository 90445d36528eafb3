package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"hwdp/internal/check"
	"hwdp/internal/core"
	"hwdp/internal/fleet"
	"hwdp/internal/kernel"
	"hwdp/internal/kvs"
	"hwdp/internal/metrics"
	"hwdp/internal/sim"
	"hwdp/internal/trace"
	"hwdp/internal/workload"
)

// sizes fixes how much work one run of a workload does. The dataset is
// always twice the simulated DRAM.
type sizes struct {
	memMB   int
	threads int
	// warmupOps per thread run before measurement starts; they must fill
	// memory (checked: reclaim has begun by the end of the warm-up).
	warmupOps int
	ops       int // measured ops per thread
	// fleet-qos only: measured virtual duration and the warm-up at its
	// start that the latency histograms exclude.
	fleetDur, fleetWarm sim.Time
}

// workloadDef is one benchmark workload. setup builds the machine and its
// dataset (the set-up time); the returned instance drives it once.
type workloadDef struct {
	name  string
	full  sizes // the benchmark's size
	tiny  sizes // the self-tests' size
	setup func(seed uint64, sz sizes, traced bool) (*instance, error)
}

// instance is a set-up machine, ready to drive exactly once.
type instance struct {
	// sys is nil for fleet-qos: fleet.Run builds and hides its machine.
	sys                *core.System
	newSystem, dataset time.Duration
	drive              func() (*outcome, error)
}

// outcome is what one drive produced. Everything but tracer is simulated
// and therefore a pure function of (workload, size, seed).
type outcome struct {
	attempted, failed uint64
	opsPerS           float64 // completed ops per virtual second
	p50us, p999us     float64 // per-op latency percentiles
	victimP999us      float64 // the last tenant's p99.9
	samples           uint64  // latency samples behind p50/p999
	victimSamples     uint64  // latency samples behind victimP999us
	// lat holds every measured op's latency; nil for fleet-qos, whose
	// result keeps only per-tenant percentiles.
	lat      *metrics.Histogram
	counters map[string]float64
	digest   string
	tracer   *trace.Tracer
}

var workloads = []*workloadDef{
	{
		name:  "fio-hwdp",
		full:  sizes{memMB: 64, threads: 4, warmupOps: 8192, ops: 20000},
		tiny:  sizes{memMB: 2, threads: 2, warmupOps: 512, ops: 500},
		setup: setupFIO,
	},
	{
		name:  "ycsb-a-osdp",
		full:  sizes{memMB: 16, threads: 4, warmupOps: 6000, ops: 12000},
		tiny:  sizes{memMB: 2, threads: 2, warmupOps: 1500, ops: 500},
		setup: setupYCSB,
	},
	{
		name: "fleet-qos",
		// 32 MiB fills by about 40 ms of virtual time.
		full:  sizes{memMB: 32, fleetDur: 350 * sim.Millisecond, fleetWarm: 50 * sim.Millisecond},
		tiny:  sizes{memMB: 8, fleetDur: 4 * sim.Millisecond, fleetWarm: 2 * sim.Millisecond},
		setup: setupFleet,
	},
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// machine builds a one-socket machine whose file system holds a dataset
// of twice its memory.
func machine(scheme kernel.Scheme, seed uint64, sz sizes, traced bool) (*core.System, int, time.Duration, error) {
	cfg := core.DefaultConfig(scheme)
	cfg.Seed = seed
	cfg.MemoryBytes = uint64(sz.memMB) << 20
	pages := 2 * int(cfg.MemoryBytes/4096)
	cfg.FSBlocks = uint64(4*pages) + 1<<16
	cfg.TraceEnabled = traced
	t0 := cpuTime()
	sys, err := core.NewSystem(cfg)
	return sys, pages, cpuTime() - t0, err
}

func setupFIO(seed uint64, sz sizes, traced bool) (*instance, error) {
	sys, pages, tNew, err := machine(kernel.HWDP, seed, sz, traced)
	if err != nil {
		return nil, err
	}
	t0 := cpuTime()
	fio, err := workload.SetupFIO(sys, "fio.dat", pages, sys.FastFlags())
	if err != nil {
		return nil, err
	}
	inst := &instance{sys: sys, newSystem: tNew, dataset: cpuTime() - t0}
	inst.drive = func() (*outcome, error) { return driveThreads(sys, fio, sz) }
	return inst, nil
}

func setupYCSB(seed uint64, sz sizes, traced bool) (*instance, error) {
	sys, pages, tNew, err := machine(kernel.OSDP, seed, sz, traced)
	if err != nil {
		return nil, err
	}
	t0 := cpuTime()
	st, err := kvs.Create(sys.K, sys.FS, sys.Proc, "store", uint64(pages), 0, 0, sys.FastFlags())
	if err != nil {
		return nil, err
	}
	y, err := workload.NewYCSB(sys, st, 'A')
	if err != nil {
		return nil, err
	}
	inst := &instance{sys: sys, newSystem: tNew, dataset: cpuTime() - t0}
	inst.drive = func() (*outcome, error) { return driveThreads(sys, y, sz) }
	return inst, nil
}

// driveThreads runs a closed loop on sz.threads threads: a warm-up that
// must leave memory full, then the measured ops.
func driveThreads(sys *core.System, w workload.Workload, sz sizes) (*outcome, error) {
	ths := make([]*kernel.Thread, sz.threads)
	for i := range ths {
		ths[i] = sys.WorkloadThread(i)
	}
	warm := workload.Merge(workload.Run(sys, ths, w, workload.RunOptions{OpsPerThread: sz.warmupOps}))
	if ev := sys.K.Stats().Evictions; ev == 0 {
		return nil, fmt.Errorf("warm-up of %d ops/thread left memory unfilled (no evictions yet)", sz.warmupOps)
	}
	m := workload.Merge(workload.Run(sys, ths, w, workload.RunOptions{OpsPerThread: sz.ops}))
	want := uint64(sz.threads * (sz.warmupOps + sz.ops))
	done := warm.Ops + m.Ops
	out := &outcome{
		attempted: want,
		// Ops lost to killed threads count as failed.
		failed:   warm.Errors + m.Errors + (want - done),
		opsPerS:  m.Throughput(),
		p50us:    us(m.Lat.Percentile(50)),
		p999us:   us(m.Lat.Percentile(99.9)),
		samples:  m.Lat.Count(),
		lat:      m.Lat,
		tracer:   sys.Trace,
		counters: systemCounters(sys),
	}
	// A single-tenant workload's last tenant is the whole workload.
	out.victimP999us, out.victimSamples = out.p999us, out.samples
	out.counters["workload.ops"] = float64(done)
	out.counters["workload.errors"] = float64(out.failed)
	if v := check.System(sys); len(v) > 0 {
		return out, fmt.Errorf("invariant check: %d violations, first: %v", len(v), v[0])
	}
	parts := []any{out.attempted, out.failed, out.opsPerS, m.Lat, sys.Eng.Now(), sys.MMU.Stats(), sys.K.Stats()}
	for _, s := range sys.SMUs {
		parts = append(parts, s.Stats())
	}
	for _, d := range sys.Devs {
		parts = append(parts, d.Stats())
	}
	out.digest = digest(parts...)
	return out, nil
}

// systemCounters reads each layer's public Stats().
func systemCounters(sys *core.System) map[string]float64 {
	c := map[string]float64{"sim.events": float64(sys.Eng.Fired())}
	ms := sys.MMU.Stats()
	c["mmu.accesses"] = float64(ms.Accesses)
	c["mmu.tlb_hit_ratio"] = ratio(ms.TLBHits, ms.Accesses)
	c["mmu.hw_misses"] = float64(ms.HWMisses)
	c["mmu.os_faults"] = float64(ms.OSFaults)
	c["mmu.hw_bounced"] = float64(ms.HWBounced)
	var handled, coalesced, backlogged, noFree, bufMiss uint64
	for _, s := range sys.SMUs {
		st := s.Stats()
		handled += st.Handled
		coalesced += st.Coalesced
		backlogged += st.Backlogged
		noFree += st.NoFreePage
		bufMiss += st.BufferMisses
	}
	c["smu.handled"] = float64(handled)
	c["smu.coalesced"] = float64(coalesced)
	c["smu.backlogged"] = float64(backlogged)
	c["smu.no_free_page"] = float64(noFree)
	c["smu.buffer_misses"] = float64(bufMiss)
	c["smu.handled_ratio"] = ratio(handled, handled+noFree)
	var reads, writes uint64
	var queueWait, mediaBusy sim.Time
	for _, d := range sys.Devs {
		st := d.Stats()
		reads += st.Reads
		writes += st.Writes
		queueWait += st.QueueWaitSum
		mediaBusy += st.MediaBusySum
	}
	c["ssd.reads"] = float64(reads)
	c["ssd.writes"] = float64(writes)
	if reads+writes > 0 {
		c["ssd.queue_wait_mean_us"] = float64(queueWait) / float64(reads+writes) / 1e6
	}
	c["ssd.media_busy_s"] = mediaBusy.Seconds()
	ks := sys.K.Stats()
	c["kernel.major_faults"] = float64(ks.MajorFaults)
	c["kernel.minor_faults"] = float64(ks.MinorFaults)
	c["kernel.evictions"] = float64(ks.Evictions)
	c["kernel.writebacks"] = float64(ks.Writebacks)
	c["kernel.hw_bounce_faults"] = float64(ks.HWBounceFaults)
	c["kernel.kpoold_frames"] = float64(ks.KpooldFrames)
	c["kernel.direct_reclaims"] = float64(ks.DirectReclaims)
	return c
}

// fleetConfig is fleet.DefaultConfig with QoS on, sized by sz.
func fleetConfig(seed uint64, sz sizes) fleet.Config {
	c := fleet.DefaultConfig()
	c.Name = "fleet-qos"
	c.QoS = true
	c.Seed = seed
	c.MemoryMB = sz.memMB
	c.Duration = sz.fleetDur
	c.Warmup = sz.fleetWarm
	return c
}

// setupFleet times the fleet's build. fleet.Run builds and drives in one
// call and hides the machine, so set-up is timed as a run of the same
// experiment driven for 1 ps (one op per thread); the drive's time
// then includes a second build, which doRep subtracts.
func setupFleet(seed uint64, sz sizes, _ bool) (*instance, error) {
	c := fleetConfig(seed, sz)
	probe := c
	probe.Duration, probe.Warmup = 1, 0
	t0 := cpuTime()
	if _, err := fleet.Run(probe); err != nil {
		return nil, err
	}
	inst := &instance{dataset: cpuTime() - t0}
	inst.drive = func() (*outcome, error) {
		r, err := fleet.Run(c)
		if err != nil {
			return nil, err
		}
		return fleetOutcome(c, r), nil
	}
	return inst, nil
}

func fleetOutcome(c fleet.Config, r fleet.Result) *outcome {
	// The hot tenant (tenant 0) carries most of the ops.
	hot, victim := r.Rows[0], r.Rows[len(r.Rows)-1]
	// Histograms exclude the warm-up, which runs slower than steady state,
	// so scaling op counts by the measured share of time undercounts.
	measured := func(ops uint64) uint64 {
		return uint64(float64(ops) * float64(c.Duration-c.Warmup) / float64(c.Duration))
	}
	var fallbacks uint64
	for _, row := range r.Rows {
		fallbacks += row.Fallbacks
	}
	out := &outcome{
		attempted: r.Ops,
		failed:    r.Errors,
		opsPerS:   r.Throughput,
		// fleet.Result keeps per-tenant access-latency histograms only, and
		// their medians are 0 (nine in ten accesses hit memory). The
		// closed-loop mean op time stands in for the median: each thread
		// always has one op outstanding, so it is threads / throughput.
		p50us:         float64(c.Threads) / r.Throughput * 1e6,
		p999us:        hot.P999US,
		samples:       measured(hot.Ops),
		victimP999us:  r.VictimP999US,
		victimSamples: measured(victim.Ops),
		counters: map[string]float64{
			"fleet.throttles":       float64(r.Throttles),
			"fleet.qos_wait_p99_us": r.QoSWaitP99,
			"fleet.fallbacks":       float64(fallbacks),
			"fleet.slo_met_frac":    float64(r.SLOMet) / float64(r.Tenants),
			"fleet.victim_ops":      float64(victim.Ops),
			"workload.ops":          float64(r.Ops),
			"workload.errors":       float64(r.Errors),
		},
	}
	out.digest = digest(r)
	return out
}

// digest hashes the printed form of simulated values (numbers, stats
// structs, histograms; fmt prints maps in key order).
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v|", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func us(ps int64) float64 { return float64(ps) / 1e6 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
