package main

// Seeds. The benchmark's runs use defaultSeed unless --seed says
// otherwise; heldOutSeed is kept out of tuning and development, for
// checking a claimed gain on inputs it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 20200530
)

// endToEnd lists the end-to-end metrics a --trace 0 run reports, in print
// order, with their units. Directions and bounds live in BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"cpu_s", "s"}, {"setup_s", "s"}, {"max_rss_mb", "MiB"},
	{"sim_ops_per_s", "1/s"}, {"sim_op_p50_us", "us"}, {"sim_op_p999_us", "us"}, {"victim_p999_us", "us"},
}

// layerMetric is one per-layer metric of a --trace 1 run: its unit and
// direction (as in BENCHMARK.json), the end-to-end metrics a change in it
// should move, and the workloads on which it should move them. Where a
// layer does not run on a workload, or fleet.Run hides it (fleet-qos has
// no System to read and no trace), the metric reads 0 there.
type layerMetric struct {
	name, unit, better string
	moves              []string
	on                 []string
}

// layerTable returns the per-layer metrics, in print order.
func layerTable() []layerMetric {
	const (
		fio   = "fio-hwdp"
		ycsb  = "ycsb-a-osdp"
		fleet = "fleet-qos"
	)
	var (
		host   = []string{"cpu_s"}
		p50    = []string{"sim_op_p50_us"}
		p999   = []string{"sim_op_p999_us"}
		tail   = []string{"sim_op_p50_us", "sim_op_p999_us"}
		victim = []string{"victim_p999_us"}
		ops    = []string{"sim_ops_per_s"}
		setup  = []string{"setup_s"}
		memory = []string{"cpu_s", "max_rss_mb"}
	)
	m := func(name, unit, better string, moves []string, on ...string) layerMetric {
		return layerMetric{name: name, unit: unit, better: better, moves: moves, on: on}
	}
	// Host CPU shares by source directory (see foldKey); "other" is the
	// rest, so the shares sum to 1.
	shares := []layerMetric{
		m("sim", "ratio", "lower", host, fleet, fio, ycsb),
		m("cpu", "ratio", "lower", host, fleet, ycsb),
		m("mmu", "ratio", "lower", host, fio),
		m("pagetable", "ratio", "lower", host, fio),
		m("smu", "ratio", "lower", host, fio, fleet),
		m("nvme", "ratio", "lower", host, fio),
		m("ssd", "ratio", "lower", host, ycsb, fio),
		m("kernel", "ratio", "lower", host, ycsb, fleet),
		m("fs", "ratio", "lower", host, fio, fleet),
		m("mem", "ratio", "lower", host, fio, fleet),
		m("kvs", "ratio", "lower", host, ycsb),
		m("workload", "ratio", "lower", host, fio, ycsb, fleet),
		m("runtime", "ratio", "lower", memory, fio, ycsb, fleet),
		m("std", "ratio", "lower", host, fleet, ycsb),
		m("other", "ratio", "lower", host, fio, ycsb, fleet),
	}
	for i := range shares {
		shares[i].name = "host.self_share." + shares[i].name
	}
	return append([]layerMetric{
		m("sim.events", "count", "lower", host, fio, ycsb),
		m("sim.host_ns_per_event", "ns", "lower", host, fio, ycsb),

		m("mmu.accesses", "count", "lower", p50, fio),
		m("mmu.tlb_hit_ratio", "ratio", "higher", p50, fio),
		m("mmu.hw_misses", "count", "lower", p50, fio),
		m("mmu.os_faults", "count", "lower", p50, fio),
		m("mmu.hw_bounced", "count", "lower", p50, fio),
		m("trace.self.mmu_mean_ns", "ns", "lower", p50, fio),

		m("smu.handled", "count", "higher", tail, fio),
		m("smu.coalesced", "count", "higher", tail, fio),
		m("smu.backlogged", "count", "lower", tail, fio),
		m("smu.no_free_page", "count", "lower", tail, fio),
		m("smu.buffer_misses", "count", "lower", tail, fio),
		m("smu.handled_ratio", "ratio", "higher", tail, fio),
		m("trace.self.smu_mean_ns", "ns", "lower", p50, fio),
		m("trace.self.smu_p99_ns", "ns", "lower", p999, fio),

		m("fleet.throttles", "count", "lower", victim, fleet),
		m("fleet.qos_wait_p99_us", "us", "lower", victim, fleet),
		m("fleet.fallbacks", "count", "lower", victim, fleet),
		m("fleet.slo_met_frac", "ratio", "higher", victim, fleet),
		m("fleet.victim_ops", "count", "higher", victim, fleet),

		m("trace.self.nvme_mean_ns", "ns", "lower", p50, fio),
		m("trace.spans_missing.nvme", "count", "lower", p50, fio),

		m("ssd.reads", "count", "lower", p999, ycsb, fio),
		m("ssd.writes", "count", "lower", p999, ycsb),
		m("ssd.queue_wait_mean_us", "us", "lower", p999, ycsb, fio),
		m("ssd.media_busy_s", "s", "lower", p999, ycsb, fio),
		m("trace.self.ssd_mean_ns", "ns", "lower", p999, ycsb, fio),
		m("trace.self.ssd_p99_ns", "ns", "lower", p999, ycsb, fio),

		m("kernel.major_faults", "count", "lower", tail, ycsb),
		m("kernel.minor_faults", "count", "lower", tail, ycsb),
		m("kernel.evictions", "count", "lower", tail, ycsb),
		m("kernel.writebacks", "count", "lower", tail, ycsb),
		m("kernel.hw_bounce_faults", "count", "lower", p50, fio),
		m("kernel.kpoold_frames", "count", "lower", tail, ycsb),
		m("kernel.direct_reclaims", "count", "lower", tail, ycsb),
		m("trace.self.kernel_mean_ns", "ns", "lower", p50, ycsb),
		m("trace.self.kernel_p99_ns", "ns", "lower", p999, ycsb),

		m("workload.ops", "count", "higher", ops, fio, ycsb, fleet),
		m("workload.errors", "count", "lower", ops, fio, ycsb, fleet),
		m("workload.latency_samples", "count", "higher", p999, fio, ycsb, fleet),

		// Attribution checks: they explain the metric named, not move it.
		m("trace.misses", "count", "higher", p50, fio, ycsb),
		m("trace.unattributed_mean_ns", "ns", "lower", p50, fio, ycsb),
		m("trace.overhead_ratio", "ratio", "lower", host, fio, ycsb),
		m("host.profile_samples", "count", "higher", host, fio, ycsb, fleet),

		m("setup.new_system_s", "s", "lower", setup, fio, ycsb),
		m("setup.dataset_s", "s", "lower", setup, fio, ycsb, fleet),

		m("go.alloc_mb", "MiB", "lower", memory, fio, ycsb, fleet),
		m("go.gc_cycles", "count", "lower", memory, fio, ycsb, fleet),
	}, shares...)
}
