package main

import (
	"math"
	"testing"
)

func TestTailQuantileSampleCountRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 0.99},
		{1000, 0.99}, // exactly ten samples beyond p99
		{999, 0.95},  // nine beyond p99: fall back to p95
		{200, 0.95},  // exactly ten beyond p95
		{199, 0.9},   // nine beyond p95: fall back to p90
		{100, 0.9},   // exactly ten beyond p90
		{99, 0.5},    // too few for any tail: the median
		{0, 0.5},
	} {
		if q := tailQuantile(tc.n); q != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1) // 1..1000
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0, 1}, {0.0001, 1},
	} {
		if got := quantile(sorted, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

func TestSampleTailCountsFailuresAsMisses(t *testing.T) {
	s := make(sample, 0, 1000)
	for i := 0; i < 980; i++ {
		s = append(s, 1)
	}
	for i := 0; i < 20; i++ {
		s = append(s, posInf) // 2% failed
	}
	if v, q := s.tail(); q != 0.99 || !math.IsInf(v, 1) {
		t.Errorf("tail = %v at p%g, want +Inf at p99", v, q*100)
	}
	if m := s.median(); m != 1 {
		t.Errorf("median = %v, want 1", m)
	}
}
