package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

// TestFoldBySourceDirectory folds a fixed sample set under both layouts a
// binary can record: absolute paths, and module-relative ones (-trimpath).
func TestFoldBySourceDirectory(t *testing.T) {
	layouts := []struct{ module, goSrc, prefix, goPrefix string }{
		{"/src/hwdp/", "/usr/local/go/src/", "/src/hwdp/", "/usr/local/go/src/"},
		{"hwdp/", "", "hwdp/", ""},
	}
	for _, l := range layouts {
		samples := []profileSample{
			// fs.SeededInit's closure, inlined into workload.SetupFIO: the
			// function name says workload, the file says fs.
			{l.prefix + "internal/fs/fs.go", 5},
			{l.prefix + "internal/kvs/kvs.go", 3},
			{l.prefix + "internal/ssd/modeled/ftl.go", 2},
			{l.prefix + "internal/ssd/ssd.go", 1},
			{l.prefix + "perfbench/main.go", 1},
			{l.goPrefix + "runtime/malloc.go", 4},
			{l.goPrefix + "sort/sort.go", 2},
			{"", 1},
		}
		got := fold(samples, l.module, l.goSrc)
		want := map[string]int64{"fs": 5, "kvs": 3, "ssd": 3, "perfbench": 1, "runtime": 4, "std": 2}
		if l.goSrc == "" {
			want["std"]++ // an unknown file is indistinguishable from the standard library
		} else {
			want["other"] = 1
		}
		if len(got) != len(want) {
			t.Errorf("%s: fold = %v, want %v", l.module, got, want)
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("%s: fold[%q] = %d, want %d (all: %v)", l.module, k, got[k], n, got)
			}
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// TestParseRuntimeProfile parses a real runtime/pprof CPU profile of a
// busy loop in this package and checks the fold charges it here.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	sink = spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	module, goSrc := sourceRoots()
	folded := fold(samples, module, goSrc)
	var total int64
	for _, n := range folded {
		total += n
	}
	if total < 10 || folded["perfbench"] < total/2 {
		t.Fatalf("fold of a 500 ms spin = %v (module root %q): want most samples in perfbench", folded, module)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Fatal("parseProfile accepted a non-gzip input")
	}
}
