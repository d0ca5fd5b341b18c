package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points of xs with the "exclusive" method
// of Python's statistics.quantiles(data, n=4), so a spread computed here is
// the one a reader recomputing it from the printed values gets.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise a bound must exceed before a difference means anything.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q3 == q1 {
		return 0
	}
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentileLadder lists the reportable tail percentiles in per mille,
// highest first.
var percentileLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest ladder percentile (in per mille) that
// leaves at least ten of n samples strictly above its nearest-rank value,
// and false when not even the median does. A percentile with fewer samples
// beyond it is one slow operation away from a different number.
func tailPercentile(n int) (perMille int, ok bool) {
	for _, pm := range percentileLadder {
		if n-nearestRank(n, pm) >= 10 {
			return pm, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of the per-mille percentile in a sample
// of n: the smallest rank with at least pm/1000 of the samples at or below
// it. Integer arithmetic keeps p90 of 100 samples at rank 90 exactly.
func nearestRank(n, perMille int) int {
	r := (perMille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank per-mille percentile of xs.
func percentile(xs []float64, perMille int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), perMille)-1]
}
