package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must leave beyond
// it: a tail percentile resting on fewer samples says more about one slow
// point than about the workload.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail is the number of samples strictly beyond the p-th percentile of n.
func tail(n int, p float64) int { return n - rank(n, p) }

// highestPercentile returns the highest of ps that leaves at least minTail of
// n samples beyond it, or 0 when none does.
func highestPercentile(n int, ps []float64) float64 {
	best := 0.0
	for _, p := range ps {
		if tail(n, p) >= minTail && p > best {
			best = p
		}
	}
	return best
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0, so idle layers print as zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
