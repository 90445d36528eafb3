package main

import (
	"sort"

	"hwdp/internal/metrics"
	"hwdp/internal/sim"
	"hwdp/internal/trace"
)

// innermost lists the traced layers from the innermost out. Spans of
// different layers overlap (an SSD span sits inside the kernel's block
// I/O span on the OS path), so summing raw span durations charges some
// instants twice. selfTimes charges each instant once, to the innermost
// layer with a span covering it.
var innermost = []trace.Layer{trace.LayerSSD, trace.LayerNVMe, trace.LayerSMU, trace.LayerKernel, trace.LayerMMU}

// selfTimes splits a finished miss [Start, End) over the layers. Spans are
// clipped to the miss; instants no span covers are unattributed. The
// self times plus unattributed equal End-Start exactly.
func selfTimes(m *trace.Miss) (self map[trace.Layer]sim.Time, unattributed sim.Time) {
	self = make(map[trace.Layer]sim.Time, len(innermost))
	cuts := []sim.Time{m.Start, m.End}
	for _, s := range m.Spans {
		if s.End > s.Start {
			cuts = append(cuts, clip(s.Start, m.Start, m.End), clip(s.End, m.Start, m.End))
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if b == a {
			continue
		}
		owner, rank := trace.Layer(0), len(innermost)
		for _, s := range m.Spans {
			if s.Start <= a && s.End >= b {
				if r := layerRank(s.Layer); r < rank {
					owner, rank = s.Layer, r
				}
			}
		}
		if rank == len(innermost) {
			unattributed += b - a
		} else {
			self[owner] += b - a
		}
	}
	return self, unattributed
}

func layerRank(l trace.Layer) int {
	for i, x := range innermost {
		if x == l {
			return i
		}
	}
	return len(innermost)
}

func clip(t, lo, hi sim.Time) sim.Time {
	return max(lo, min(t, hi))
}

// attribution summarizes a traced run's misses: per-layer self time,
// unattributed time, and hardware-handled misses that carry no NVMe span
// (an attribution gap, reported as it stands).
type attribution struct {
	misses       int
	self         map[trace.Layer]*metrics.Histogram
	unattributed *metrics.Histogram
	missingNVMe  int
	// mismatched counts misses whose self times plus unattributed did not
	// sum to the total; selfTimes guarantees 0.
	mismatched int
}

func attribute(ms []*trace.Miss) attribution {
	a := attribution{
		misses:       len(ms),
		self:         make(map[trace.Layer]*metrics.Histogram, len(innermost)),
		unattributed: metrics.NewHistogram(),
	}
	for _, l := range innermost {
		a.self[l] = metrics.NewHistogram()
	}
	for _, m := range ms {
		self, rest := selfTimes(m)
		sum := rest
		for _, l := range innermost {
			a.self[l].Record(int64(self[l]))
			sum += self[l]
		}
		a.unattributed.Record(int64(rest))
		if sum != m.End-m.Start {
			a.mismatched++
		}
		if m.Cause == trace.CauseHWMiss && !hasLayer(m, trace.LayerNVMe) {
			a.missingNVMe++
		}
	}
	return a
}

func hasLayer(m *trace.Miss, l trace.Layer) bool {
	for _, s := range m.Spans {
		if s.Layer == l {
			return true
		}
	}
	return false
}
