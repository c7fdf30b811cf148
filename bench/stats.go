package main

import (
	"math"
	"sort"
)

// percentile is the exact nearest-rank percentile of an ascending slice:
// the smallest sample with at least p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCandidates are the percentiles the high-percentile picker may report,
// lowest first. The first three exist so a ten-second scan run (under 200
// samples) still reports the highest tail its sample supports.
var tailCandidates = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the figure is one or two outliers, not a percentile.
const minBeyond = 10

// pickHigh returns the highest candidate percentile that still has at
// least minBeyond samples beyond it, and that percentile's value. With
// fewer than 2*minBeyond samples it reports the median.
func pickHigh(sorted []float64) (p, value float64) {
	p = tailCandidates[0]
	for _, c := range tailCandidates {
		if len(sorted)-rank(len(sorted), c) >= minBeyond {
			p = c
		}
	}
	return p, percentile(sorted, p)
}

// interval is a half-open span of time [start, end) in nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) len() int64 { return iv.end - iv.start }

// merge returns the union of ivs as disjoint ascending intervals.
func merge(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// unionLen is the total time covered by at least one of ivs.
func unionLen(ivs []interval) int64 {
	var n int64
	for _, iv := range merge(ivs) {
		n += iv.len()
	}
	return n
}

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (the engine runs exchanges on
// two workers) and are clipped to the parent.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return parent.len() - unionLen(clipped)
}

// windowQPS is the throughput figure of a time-based run. The run is cut
// into consecutive windows of length window from time 0; in each
// window a client's rate is the ops it completed there (an op straddling
// a boundary is credited to each side in proportion to its overlap)
// divided by the time it spent inside ops there, so the checker's time
// between ops is not counted against the program. A window's rate is the
// sum over clients; the result is the median over the full windows, which
// one stall in one window cannot move.
func windowQPS(clients [][]interval, window int64, windows int) float64 {
	rates := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		lo, hi := int64(w)*window, int64(w+1)*window
		rate := 0.0
		for _, ops := range clients {
			var credit, busy float64
			for _, op := range ops {
				s, e := max(op.start, lo), min(op.end, hi)
				if e <= s || op.len() <= 0 {
					continue
				}
				credit += float64(e-s) / float64(op.len())
				busy += float64(e - s)
			}
			if busy > 0 {
				rate += credit / (busy / 1e9)
			}
		}
		rates = append(rates, rate)
	}
	return medianOf(rates)
}

// median of an ascending slice; the mean of the two middle values when
// the count is even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf is the median of xs in any order; xs is left as it was.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}
