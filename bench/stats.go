package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two nearest order statistics (the "type 7"
// rule numpy and R default to). xs need not be sorted; it is not
// modified. An empty sample has no percentile and yields NaN, which the
// metric set refuses — a workload that produced no samples fails loudly.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

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

// iqrPct is the interquartile range as a percentage of the median: the
// spread figure the benchmark's bounds are judged against.
func iqrPct(xs []float64) float64 {
	return 100 * (percentile(xs, 75) - percentile(xs, 25)) / median(xs)
}

// ratio is a/b with the 0/0 of an idle counter pair reported as 0, so a
// workload that never touches a cache tier reports a zero hit ratio
// rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
