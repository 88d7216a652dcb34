package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0..1) of the sorted samples by
// nearest rank; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns the samples ascending, leaving the input untouched.
func sortedCopy(v []float64) []float64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// median is the middle sample (mean of the two middle ones for an even
// count): the pass statistic every timing metric reports, so a neighbour's
// burst costs one pass and not the number.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 by the "exclusive" method, the one Python's
// statistics.quantiles(v, n=4) uses and the driver judges spread by. It
// needs at least two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median — the
// repeatability figure the benchmark is judged on.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// tailQuantile picks the highest of the usual tail percentiles that still
// has at least ten samples beyond it, so a reported tail is never a single
// outlier. It returns 0.5 when even p90 is not supported.
func tailQuantile(n int) float64 {
	for _, oneIn := range []int{10000, 1000, 100, 20, 10} {
		if n/oneIn >= 10 {
			return 1 - 1/float64(oneIn)
		}
	}
	return 0.5
}
