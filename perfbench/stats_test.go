package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {75, 4}, {90, 5}, {100, 5}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
}

// The highest reported percentile must leave at least minTail samples
// beyond it; on the 69-point svf workload that is p75.
func TestHighestPercentileTailRule(t *testing.T) {
	ps := []float64{50, 75, 90, 95, 99}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{69, 75},   // p90 leaves 6
		{40, 75},   // p75 leaves exactly 10
		{39, 50},   // p75 leaves 9
		{138, 90},  // p90 leaves 13, p95 leaves 6
		{1150, 99}, // p99 leaves 11
		{15, 0},    // even p50 leaves only 7
	} {
		if got := highestPercentile(c.n, ps); got != c.want {
			t.Errorf("n=%d: highest percentile p%g, want p%g (tail at p75 = %d)", c.n, got, c.want, tail(c.n, 75))
		}
	}
}
