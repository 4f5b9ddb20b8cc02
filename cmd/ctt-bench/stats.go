package main

import (
	"math"
	"sort"
)

// Metric is one reported number. N is the sample count behind a
// timing (0 for counts and ratios).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// tailBeyond is how many samples must lie beyond a percentile before
// the harness prints it: a p99 therefore needs 1,000 samples, a p95
// 200.
const tailBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailSupported reports whether n samples leave at least tailBeyond of
// them beyond the p-th percentile.
func tailSupported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= tailBeyond
}

// latencySummary sorts samples (milliseconds) in place and returns the
// median and the p-th percentile; ok is false when the tail has fewer
// than tailBeyond samples beyond it, in which case the caller must not
// print it.
func latencySummary(samples []float64, p float64) (p50, tail float64, ok bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	sort.Float64s(samples)
	p50 = percentile(samples, 50)
	if !tailSupported(len(samples), p) {
		return p50, 0, false
	}
	return p50, percentile(samples, p), true
}

// median returns the middle value of xs (mean of the two middle ones
// for an even count) without disturbing the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of xs (at least two
// values) by the exclusive method, as Python's
// statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		d := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}
