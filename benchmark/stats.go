package main

import (
	"math"
	"sort"
)

// sortedCopy returns the values in ascending order without disturbing the
// caller's slice.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the smallest
// sample with at least p percent of the samples at or below it. Nearest rank
// never interpolates, so a reported latency is one that was observed.
func percentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method), so
// the spreads -repeat reports are the spreads the acceptance check sees.
// Fewer than two samples have no spread: both quartiles are the sample.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return values[0], values[0]
	}
	s := sortedCopy(values)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Like Python, the weight is taken after clamping, so the ends
		// extrapolate on very small samples.
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance as a share of the median, the
// steadiness figure every end-to-end metric is held to.
func spreadShare(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}
