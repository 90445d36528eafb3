package main

import (
	"testing"
)

// moduleShares profiles untraced full-size drives of w until at least
// minSamples CPU samples are in, and returns the share of each folded
// source directory.
func moduleShares(t *testing.T, w *workloadDef, minSamples int64) map[string]float64 {
	t.Helper()
	module, goSrc := sourceRoots()
	folded := map[string]int64{}
	var total int64
	for seed := uint64(1); total < minSamples; seed++ {
		r, err := doRep(w, seed, w.full, false, true)
		if err != nil {
			t.Fatal(err)
		}
		for k, n := range fold(r.profile, module, goSrc) {
			folded[k] += n
			total += n
		}
	}
	shares := map[string]float64{}
	for k, n := range folded {
		shares[k] = float64(n) / float64(total)
	}
	return shares
}

// largestModule returns the model package with the largest share,
// leaving out the Go runtime, the standard library and other code.
func largestModule(shares map[string]float64) string {
	best := ""
	for k, v := range shares {
		switch k {
		case "runtime", "std", "other", "perfbench":
			continue
		}
		if best == "" || v > shares[best] {
			best = k
		}
	}
	return best
}

// TestHostShareSanity checks the profile fold on real runs: kvs record
// hashing dominates ycsb-a-osdp's model code and is absent from
// fio-hwdp, where page-content synthesis (fs) dominates.
func TestHostShareSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles full-size runs")
	}
	fio := moduleShares(t, lookupWorkload("fio-hwdp"), 200)
	ycsb := moduleShares(t, lookupWorkload("ycsb-a-osdp"), 200)
	if got := largestModule(ycsb); got != "kvs" {
		t.Errorf("ycsb-a-osdp: largest module share is %s, want kvs (%v)", got, ycsb)
	}
	if fio["kvs"] > 0.01 {
		t.Errorf("fio-hwdp: kvs share %.3f, want about 0", fio["kvs"])
	}
	if got := largestModule(fio); got != "fs" {
		t.Errorf("fio-hwdp: largest module share is %s, want fs (%v)", got, fio)
	}
}
