package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so the tail
// is set by a population and not by one or two outliers.
const minBeyond = 10

// tailCandidates are the percentiles a tail metric may report, highest
// first. p99.9 is left out on purpose: at the sample counts one run gathers
// it is set by a handful of GC pauses and cannot hold within a bound.
var tailCandidates = []float64{0.99, 0.95, 0.9}

// tailQuantile picks the highest candidate percentile with at least
// minBeyond of n samples above it; with too few samples for any, the
// median.
func tailQuantile(n int) float64 {
	for _, q := range tailCandidates {
		if n-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// quantile returns the q-quantile of sorted by the nearest-rank rule: the
// smallest sample with at least q of the samples at or below it. An empty
// slice gives NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// epsilon keeps q*n from rounding up past an exact integer (0.99*1000).
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

var posInf = math.Inf(1)

// sample collects float observations; failed operations enter as +Inf so
// they count as missing every latency percentile.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) median() float64 { return quantile(s.sorted(), 0.5) }

// tail reports the percentile tailQuantile chooses for this sample size,
// and which percentile that was.
func (s sample) tail() (value, q float64) {
	q = tailQuantile(len(s))
	return quantile(s.sorted(), q), q
}
