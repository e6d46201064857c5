package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a tail percentile before
// it is reported: p99 therefore needs 1,000 samples in the round.
const tailSamples = 10

// percentile returns the q-quantile (nearest rank) of xs, which must be
// sorted ascending. A tail percentile (q > 0.9) is refused, ok = false,
// unless at least tailSamples samples lie beyond it; p50 and p90 are refused
// only on an empty round.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	if q > 0.9 && float64(n)*(1-q) < tailSamples {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], true
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice; 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minMax returns the extremes of xs; zeros for no values.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// ratio is a/b, or 0 when the base is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
