// Command perfbench is the repository's benchmark. It runs one closed-loop
// workload on the simulator for a fixed host-time budget and prints every
// metric by name with its unit, then one JSON result line:
//
//	go run . --workload fio-hwdp --seed 1 --seconds 40 --trace 0
//
// --trace 0 repeats set-up and drive with tracing off and reports the
// end-to-end metrics. --trace 1 alternates CPU-profiled untraced drives
// with traced ones and reports the per-layer metrics. Either way the run
// fails (exit 1) when an op fails, an invariant check fails, or a
// simulated result differs between two drives of the same seed. See
// README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"hwdp/internal/metrics"
	"hwdp/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: fio-hwdp, ycsb-a-osdp or fleet-qos")
	seed := flags.Uint64("seed", defaultSeed, "workload seed")
	seconds := flags.Float64("seconds", 10, "host seconds to measure for")
	traced := flags.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *traced, *seconds)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 1 {
		res, err = measureTraced(w, *seed, w.full, budget, stdout)
	} else {
		res, err = measureUntraced(w, *seed, w.full, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		res.Correct = false
	}
	line, _ := json.Marshal(res) // strings, bools and finite floats only
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// rep is one set-up plus drive, with its host timings. setup and drive
// are host CPU time; wall is the drive's wall clock.
type rep struct {
	out                       *outcome
	setup, newSystem, dataset time.Duration
	drive, wall               time.Duration
	allocMB                   float64
	gcCycles                  float64
	profile                   []profileSample
}

// doRep sets up and drives w once, with a CPU profile of the drive when
// profiled. A garbage collection before each timed phase keeps one
// repeat's garbage out of the next one's timing.
//
// Set-up and drive are timed in host CPU time, not wall clock. On a
// shared virtual machine the wall clock also counts time the hypervisor
// gives the CPU to other guests (steal time), which came and went in
// stretches of minutes and moved the median drive's wall clock by a
// third between runs; the guest kernel leaves steal time out of a
// process's CPU time. The simulation is sequential, so its CPU time is
// the wall clock it would take on a core of its own, plus the garbage
// collector's work beside it.
func doRep(w *workloadDef, seed uint64, sz sizes, traced, profiled bool) (*rep, error) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	inst, err := w.setup(seed, sz, traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &rep{setup: cpuTime() - c0, newSystem: inst.newSystem, dataset: inst.dataset}
	setupWall := time.Since(t0)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	c1, t1 := cpuTime(), time.Now()
	out, err := inst.drive()
	r.drive, r.wall = cpuTime()-c1, time.Since(t1)
	if profiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("drive: %w", err)
	}
	r.out = out
	r.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	if inst.sys == nil {
		// fleet.Run builds the machine again inside the drive.
		r.drive -= r.setup
		r.wall -= setupWall
	}
	if profiled {
		if r.profile, err = parseProfile(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// cpuTime returns the user plus system CPU time of the process so far,
// over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// subSeedCount is how many sub-seeds one run simulates. The simulated
// metrics pool them (latency histograms are merged; fleet-qos's
// per-tenant percentiles, which cannot be merged, take the median), so a
// run's tail percentiles rest on subSeedCount independent simulations
// rather than one. The host-time repeats that wall_s needs anyway are
// what simulate them.
const subSeedCount = 16

// session runs the repeats of one run: repeat i drives sub-seed i mod
// subSeedCount, and every drive of a sub-seed must reproduce the first
// drive's simulated results exactly.
type session struct {
	w     *workloadDef
	sz    sizes
	seeds []uint64
	first []*outcome // first outcome per sub-seed
	// profile turns on CPU profiling of untraced drives.
	profile bool
	errs    []error
	res     result
	reps    []*rep
}

func newSession(w *workloadDef, seed uint64, sz sizes) *session {
	rng := sim.NewRand(seed)
	seeds := make([]uint64, subSeedCount)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return &session{w: w, sz: sz, seeds: seeds, first: make([]*outcome, subSeedCount),
		res: result{Metrics: map[string]metricValue{}}}
}

// do sets up and drives sub-seed i once and checks the outcome.
func (s *session) do(i int, traced bool) (*rep, error) {
	// The untraced drives of a traced run carry the CPU profile, so host
	// shares describe the cost wall_s measures, not the tracer's.
	r, err := doRep(s.w, s.seeds[i], s.sz, traced, s.profile && !traced)
	if err != nil {
		return nil, err
	}
	s.reps = append(s.reps, r)
	s.check(i, r.out, traced)
	return r, nil
}

// check applies the correctness gate to one drive of sub-seed i.
func (s *session) check(i int, o *outcome, traced bool) {
	s.res.Attempted += o.attempted
	s.res.Failed += o.failed
	if o.failed > 0 {
		s.errs = append(s.errs, fmt.Errorf("%d of %d ops failed", o.failed, o.attempted))
	}
	if o.samples < 10_000 || o.victimSamples < 10_000 {
		s.errs = append(s.errs, fmt.Errorf("p99.9 needs 10 samples beyond it: have %d samples (%d for the victim)",
			o.samples, o.victimSamples))
	}
	if s.first[i] == nil {
		s.first[i] = o
	} else if o.digest != s.first[i].digest {
		s.errs = append(s.errs, fmt.Errorf("sub-seed %d: simulated results differ between drives (traced %v): %s vs %s",
			i, traced, o.digest, s.first[i].digest))
	}
}

// timeLeft reports whether another repeat of median length fits in the
// budget.
func (s *session) timeLeft(start time.Time, budget time.Duration) bool {
	typical := median(field(s.reps, func(r *rep) float64 { return r.setup.Seconds() + r.wall.Seconds() }))
	return time.Since(start).Seconds()+typical < budget.Seconds()
}

// simDigest hashes the sub-seeds' digests, in order.
func (s *session) simDigest() string {
	var parts []any
	for _, o := range s.first {
		parts = append(parts, o.digest)
	}
	return digest(parts...)
}

// pooledLatency merges the sub-seeds' latency histograms, or returns nil
// when the workload keeps none.
func (s *session) pooledLatency() *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, o := range s.first {
		if o.lat == nil {
			return nil
		}
		h.Merge(o.lat)
	}
	return h
}

// finish records the correctness verdict.
func (s *session) finish() (result, error) {
	err := errors.Join(s.errs...)
	s.res.Correct = err == nil
	return s.res, err
}

func measureUntraced(w *workloadDef, seed uint64, sz sizes, budget time.Duration, stdout io.Writer) (result, error) {
	s := newSession(w, seed, sz)
	start := time.Now()
	for i := 0; i < subSeedCount || s.timeLeft(start, budget); i++ {
		if _, err := s.do(i%subSeedCount, false); err != nil {
			return s.res, err
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	simMedian := func(f func(*outcome) float64) float64 {
		xs := make([]float64, len(s.first))
		for i, o := range s.first {
			xs[i] = f(o)
		}
		return median(xs)
	}
	p50 := simMedian(func(o *outcome) float64 { return o.p50us })
	p999 := simMedian(func(o *outcome) float64 { return o.p999us })
	victim := simMedian(func(o *outcome) float64 { return o.victimP999us })
	if pooled := s.pooledLatency(); pooled != nil {
		p50, p999 = us(pooled.Percentile(50)), us(pooled.Percentile(99.9))
		victim = p999 // a single-tenant workload is its own last tenant
	}
	vals := map[string]float64{
		"cpu_s":          median(field(s.reps, func(r *rep) float64 { return r.drive.Seconds() })),
		"setup_s":        median(field(s.reps, func(r *rep) float64 { return r.setup.Seconds() })),
		"max_rss_mb":     float64(ru.Maxrss) / 1024, // Linux reports KiB
		"sim_ops_per_s":  simMedian(func(o *outcome) float64 { return o.opsPerS }),
		"sim_op_p50_us":  p50,
		"sim_op_p999_us": p999,
		"victim_p999_us": victim,
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d repeats over %d sub-seeds, latency samples per sub-seed %v (victim %v)\n",
		w.name, seed, len(s.reps), subSeedCount, s.first[0].samples, s.first[0].victimSamples)
	for _, e := range endToEnd {
		s.res.Metrics[e.name] = metricValue{vals[e.name], e.unit}
		fmt.Fprintf(stdout, "  %-16s %14.6g %s\n", e.name, vals[e.name], e.unit)
	}
	fmt.Fprintf(stdout, "  %-16s %14.6g ratio\n", "op_error_ratio", float64(s.res.Failed)/float64(s.res.Attempted))
	fmt.Fprintf(stdout, "  %-16s %14.6g s (host wall clock, steal time included; not a declared metric)\n",
		"wall_s", median(field(s.reps, func(r *rep) float64 { return r.wall.Seconds() })))
	fmt.Fprintf(stdout, "  sim_digest       %s\n", s.simDigest())
	return s.finish()
}

// measureTraced alternates an untraced, CPU-profiled drive and a traced
// drive of each sub-seed in turn. Per-layer counts come from sub-seed 0.
func measureTraced(w *workloadDef, seed uint64, sz sizes, budget time.Duration, stdout io.Writer) (result, error) {
	s := newSession(w, seed, sz)
	s.profile = true
	var untraced, traced []*rep
	var attr *attribution
	start := time.Now()
	for i := 0; i < 2 || i%2 == 1 || s.timeLeft(start, budget); i++ {
		isTraced := i%2 == 1
		r, err := s.do(i/2%subSeedCount, isTraced)
		if err != nil {
			return s.res, err
		}
		if !isTraced {
			untraced = append(untraced, r)
			continue
		}
		traced = append(traced, r)
		if attr == nil && r.out.tracer != nil {
			a := attribute(r.out.tracer.Misses())
			attr = &a
		}
		r.out.tracer = nil // keep one run's spans alive, not every run's
	}
	vals := layerValues(untraced, traced, attr)
	fmt.Fprintf(stdout, "workload %s seed %d: %d untraced and %d traced repeats\n",
		w.name, seed, len(untraced), len(traced))
	for _, lm := range layerTable() {
		s.res.Metrics[lm.name] = metricValue{vals[lm.name], lm.unit}
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", lm.name, vals[lm.name], lm.unit)
	}
	if attr != nil && attr.mismatched > 0 {
		s.errs = append(s.errs, fmt.Errorf("%d traced misses: self times plus unattributed differ from the total", attr.mismatched))
	}
	return s.finish()
}

// layerValues computes every per-layer metric: simulated counters from
// the first untraced drive, host figures as medians over the repeats, self
// times from the attribution of the first traced drive, and host CPU
// shares from the profiles of all untraced drives.
func layerValues(untraced, traced []*rep, a *attribution) map[string]float64 {
	u := untraced[0]
	vals := map[string]float64{}
	for k, v := range u.out.counters {
		vals[k] = v
	}
	vals["workload.latency_samples"] = float64(u.out.samples)
	cpuU := median(field(untraced, func(r *rep) float64 { return r.drive.Seconds() }))
	cpuT := median(field(traced, func(r *rep) float64 { return r.drive.Seconds() }))
	if ev := vals["sim.events"]; ev > 0 {
		vals["sim.host_ns_per_event"] = cpuU * 1e9 / ev
	}
	vals["trace.overhead_ratio"] = cpuT / cpuU
	vals["setup.dataset_s"] = median(field(untraced, func(r *rep) float64 { return r.dataset.Seconds() }))
	vals["setup.new_system_s"] = median(field(untraced, func(r *rep) float64 { return r.newSystem.Seconds() }))
	vals["go.alloc_mb"] = median(field(untraced, func(r *rep) float64 { return r.allocMB }))
	vals["go.gc_cycles"] = median(field(untraced, func(r *rep) float64 { return r.gcCycles }))

	if a != nil {
		vals["trace.misses"] = float64(a.misses)
		vals["trace.unattributed_mean_ns"] = a.unattributed.Mean() / 1e3
		vals["trace.spans_missing.nvme"] = float64(a.missingNVMe)
		for _, l := range innermost {
			vals["trace.self."+l.String()+"_mean_ns"] = a.self[l].Mean() / 1e3
			vals["trace.self."+l.String()+"_p99_ns"] = float64(a.self[l].Percentile(99)) / 1e3
		}
	}

	module, goSrc := sourceRoots()
	folded := map[string]int64{}
	var total int64
	for _, r := range untraced {
		for k, n := range fold(r.profile, module, goSrc) {
			folded[k] += n
			total += n
		}
	}
	vals["host.profile_samples"] = float64(total)
	if total > 0 {
		named := map[string]bool{}
		for _, lm := range layerTable() {
			named[lm.name] = true
		}
		for k, n := range folded {
			key := "host.self_share." + k
			if !named[key] {
				key = "host.self_share.other"
			}
			vals[key] += float64(n) / float64(total)
		}
	}
	return vals
}

func field(rs []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
