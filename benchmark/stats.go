package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles op_tail_ms may report, highest
// first, in tenths of a percent.
var tailCandidates = []int{999, 990, 950, 900, 750, 500}

// tailPercentile picks the highest candidate percentile that has at least
// ten of n samples beyond it, in tenths of a percent (n=196 gives 900,
// p90: 19.6 samples lie beyond it, and only 9.8 beyond p95). Below 20
// samples no candidate qualifies and the median is used.
func tailPercentile(n int) int {
	for _, p := range tailCandidates {
		if n*(1000-p) >= 10*1000 {
			return p
		}
	}
	return 500
}

// percentile interpolates linearly between the closest ranks of sorted
// (the numpy default), with p in [0, 100].
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// latencySummary sorts op latencies and returns them in milliseconds.
func latencySummary(lats []time.Duration) []float64 {
	ms := make([]float64, len(lats))
	for i, d := range lats {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return ms
}
