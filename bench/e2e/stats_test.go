package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles of nothing = %v, want NaN", q1)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
}

func TestTailPercentileLeavesTenAbove(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pm     int
		ok     bool
		reason string
	}{
		{19, 0, false, "even the median has only 9 above"},
		{20, 500, true, "rank 10, 10 above"},
		{99, 750, true, "p90 would leave 9 above"},
		{100, 900, true, "rank 90, 10 above"},
		{199, 900, true, "p95 would leave 9 above"},
		{200, 950, true, "rank 190, 10 above"},
		{999, 950, true, "p99 would leave 9 above"},
		{1000, 990, true, "rank 990, 10 above"},
		{10000, 999, true, "rank 9990, 10 above"},
	} {
		pm, ok := tailPercentile(tc.n)
		if pm != tc.pm || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d %v, want %d %v (%s)", tc.n, pm, ok, tc.pm, tc.ok, tc.reason)
		}
		if ok && tc.n-nearestRank(tc.n, pm) < 10 {
			t.Errorf("n=%d p%d leaves fewer than ten samples above", tc.n, pm)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted order
	}
	if got := percentile(xs, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 500); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile([]float64{7}, 990); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}
