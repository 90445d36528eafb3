package main

import (
	"testing"

	"hwdp/internal/sim"
	"hwdp/internal/trace"
)

func span(l trace.Layer, start, end sim.Time) trace.Span {
	return trace.Span{Layer: l, Name: l.String(), Start: start, End: end}
}

// TestSelfTimesOverlappingSpans checks the split on a miss whose raw span
// durations sum to more than its total: the kernel's block I/O span
// contains the SSD span, NVMe overlaps the SSD's end, an MMU span starts
// before the miss, and one gap has no span at all.
func TestSelfTimesOverlappingSpans(t *testing.T) {
	m := &trace.Miss{Cause: trace.CauseOSMajor, Start: 100, End: 200, Spans: []trace.Span{
		span(trace.LayerMMU, 90, 110),     // clipped to [100,110)
		span(trace.LayerKernel, 110, 190), // minus the inner spans
		span(trace.LayerSSD, 130, 160),
		span(trace.LayerNVMe, 155, 165), // the SSD owns [155,160)
		span(trace.LayerKernel, 150, 150),
		span(trace.LayerSMU, 195, 200),
	}}
	self, rest := selfTimes(m)
	want := map[trace.Layer]sim.Time{
		trace.LayerMMU: 10, trace.LayerKernel: 20 + 25, trace.LayerSSD: 30,
		trace.LayerNVMe: 5, trace.LayerSMU: 5,
	}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("%v self = %d, want %d", l, self[l], d)
		}
	}
	if rest != 5 {
		t.Errorf("unattributed = %d, want 5 ([190,195) has no span)", rest)
	}
	var raw sim.Time
	for _, s := range m.Spans {
		raw += s.Dur()
	}
	if raw <= m.End-m.Start {
		t.Fatalf("test spans should overlap: raw sum %d vs total %d", raw, m.End-m.Start)
	}
}

// TestSelfTimesSumToTotal checks the identity self + unattributed = total
// on random, freely overlapping spans, and that attribute counts no miss
// as mismatched.
func TestSelfTimesSumToTotal(t *testing.T) {
	rng := sim.NewRand(7)
	var misses []*trace.Miss
	for i := 0; i < 500; i++ {
		start := sim.Time(rng.Intn(1000))
		m := &trace.Miss{Cause: trace.CauseHWMiss, Start: start, End: start + sim.Time(1+rng.Intn(5000))}
		for j := rng.Intn(8); j > 0; j-- {
			a := start - 200 + sim.Time(rng.Intn(6000))
			m.Spans = append(m.Spans, span(innermost[rng.Intn(len(innermost))], a, a+sim.Time(rng.Intn(3000))))
		}
		self, rest := selfTimes(m)
		sum := rest
		for _, d := range self {
			sum += d
		}
		if sum != m.End-m.Start {
			t.Fatalf("miss %d: self+unattributed = %d, total %d", i, sum, m.End-m.Start)
		}
		misses = append(misses, m)
	}
	a := attribute(misses)
	if a.mismatched != 0 || a.misses != len(misses) {
		t.Fatalf("attribute: %d mismatched of %d", a.mismatched, a.misses)
	}
}

// TestAttributeCountsMissingNVMe checks that a hardware miss without an
// NVMe span is counted as an attribution gap and other misses are not.
func TestAttributeCountsMissingNVMe(t *testing.T) {
	a := attribute([]*trace.Miss{
		{Cause: trace.CauseHWMiss, Start: 0, End: 10, Spans: []trace.Span{span(trace.LayerSMU, 0, 10)}},
		{Cause: trace.CauseHWMiss, Start: 0, End: 10, Spans: []trace.Span{span(trace.LayerNVMe, 0, 10)}},
		{Cause: trace.CauseOSMajor, Start: 0, End: 10, Spans: []trace.Span{span(trace.LayerKernel, 0, 10)}},
	})
	if a.missingNVMe != 1 {
		t.Fatalf("missingNVMe = %d, want 1", a.missingNVMe)
	}
	if got := a.self[trace.LayerNVMe].Mean(); got != 10.0/3 {
		t.Fatalf("nvme mean self = %v, want 10/3 (mean over every miss)", got)
	}
}
