package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v with the same
// interpolation as Python's statistics.quantiles(v, n=4) (its default
// "exclusive" method), so the spreads this benchmark reports match the
// ones computed from its result lines. A single value is its own
// quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// tailCandidates are the percentiles a tail latency may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for a timing's tail: the
// highest candidate percentile that still has at least ten samples
// beyond it, read by nearest rank. ok is false when even the median
// has fewer than ten samples above it.
func tailPercentile(v []float64) (p, value float64, ok bool) {
	s := sorted(v)
	n := len(s)
	for _, p := range tailCandidates {
		rank := nearestRank(p, n)
		if n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n sorted
// samples. The tolerance keeps p/100*n from rounding up past an exact
// rank (0.99*1000 is not exactly 990 in floating point).
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}
