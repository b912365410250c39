package campaign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpurel/internal/faults"
)

// fakeExperiment classifies runs deterministically from the seeded RNG.
func fakeExperiment(run int, rng *rand.Rand) faults.Result {
	switch rng.Intn(10) {
	case 0:
		return faults.Result{Outcome: faults.SDC}
	case 1:
		return faults.Result{Outcome: faults.DUE}
	case 2:
		return faults.Result{Outcome: faults.Timeout}
	case 3:
		return faults.Result{Outcome: faults.Masked, CtrlAffected: true}
	default:
		return faults.Result{Outcome: faults.Masked}
	}
}

func TestTallyCounts(t *testing.T) {
	var tl Tally
	tl.Add(faults.Result{Outcome: faults.SDC})
	tl.Add(faults.Result{Outcome: faults.Masked})
	tl.Add(faults.Result{Outcome: faults.Masked, CtrlAffected: true})
	tl.Add(faults.Result{Outcome: faults.DUE})
	if tl.N != 4 || tl.Counts[faults.SDC] != 1 || tl.Counts[faults.Masked] != 2 {
		t.Errorf("tally = %+v", tl)
	}
	if tl.FR() != 0.5 {
		t.Errorf("FR = %v, want 0.5", tl.FR())
	}
	if tl.CtrlAffected != 1 || tl.CtrlAffectedPct() != 0.25 {
		t.Errorf("ctrl affected = %d (%v)", tl.CtrlAffected, tl.CtrlAffectedPct())
	}
}

// TestSchedulingIndependence: the tally must not depend on the worker count.
func TestSchedulingIndependence(t *testing.T) {
	t1 := Run(Options{Runs: 500, Seed: 42, Workers: 1}, fakeExperiment)
	t4 := Run(Options{Runs: 500, Seed: 42, Workers: 4}, fakeExperiment)
	t8 := Run(Options{Runs: 500, Seed: 42, Workers: 8}, fakeExperiment)
	t9 := Run(Options{Runs: 500, Seed: 42, Workers: 9}, fakeExperiment)
	if t1 != t4 || t1 != t8 || t1 != t9 {
		t.Errorf("tallies differ across worker counts:\n1: %+v\n4: %+v\n8: %+v\n9: %+v", t1, t4, t8, t9)
	}
}

// TestRunRangeSplitMerge: RunRange(0,k) merged with RunRange(k,n) must equal
// Run over n for any split point — the invariant the service's
// checkpoint/resume machinery relies on (a resumed job replays only the
// unexecuted indices, never the completed ones).
func TestRunRangeSplitMerge(t *testing.T) {
	const n = 400
	opts := Options{Runs: n, Seed: 42, Workers: 4}
	whole := Run(opts, fakeExperiment)
	for _, k := range []int{0, 1, 137, n / 2, n - 1, n} {
		lo := RunRange(opts, 0, k, fakeExperiment)
		hi := RunRange(opts, k, n, fakeExperiment)
		lo.Merge(hi)
		if lo != whole {
			t.Errorf("split at %d: merged %+v != whole %+v", k, lo, whole)
		}
	}
	// Three-way split with shuffled execution order.
	a := RunRange(opts, 250, n, fakeExperiment)
	b := RunRange(opts, 0, 100, fakeExperiment)
	c := RunRange(opts, 100, 250, fakeExperiment)
	a.Merge(b)
	a.Merge(c)
	if a != whole {
		t.Errorf("three-way merge %+v != whole %+v", a, whole)
	}
}

// TestRunRangeClamp: out-of-bounds ranges are clamped, empty ranges tally
// nothing.
func TestRunRangeClamp(t *testing.T) {
	opts := Options{Runs: 50, Seed: 9, Workers: 2}
	if tl := RunRange(opts, -10, 1000, fakeExperiment); tl != Run(opts, fakeExperiment) {
		t.Errorf("clamped range != full run: %+v", tl)
	}
	if tl := RunRange(opts, 30, 30, fakeExperiment); tl.N != 0 {
		t.Errorf("empty range tallied %d", tl.N)
	}
	if tl := RunRange(opts, 40, 20, fakeExperiment); tl.N != 0 {
		t.Errorf("inverted range tallied %d", tl.N)
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := Run(Options{Runs: 300, Seed: 1}, fakeExperiment)
	b := Run(Options{Runs: 300, Seed: 2}, fakeExperiment)
	if a == b {
		t.Error("different seeds should produce different tallies (overwhelmingly)")
	}
}

// TestPaperMargin verifies the ±2.35% at n=3000 claim of §II-A.
func TestPaperMargin(t *testing.T) {
	m := WorstCaseMargin99(3000)
	if math.Abs(m-0.0235) > 0.0005 {
		t.Errorf("worst-case margin at n=3000 = %.4f, paper says ~2.35%%", m)
	}
}

func TestErrMargin(t *testing.T) {
	var tl Tally
	for i := 0; i < 100; i++ {
		o := faults.Masked
		if i < 50 {
			o = faults.SDC
		}
		tl.Add(faults.Result{Outcome: o})
	}
	m := tl.ErrMargin99()
	want := z99 * math.Sqrt(0.25/100)
	if math.Abs(m-want) > 1e-12 {
		t.Errorf("margin = %v, want %v", m, want)
	}
	var empty Tally
	if empty.ErrMargin99() != 0 || empty.FR() != 0 || empty.Pct(faults.SDC) != 0 {
		t.Error("empty tally must be all zeros")
	}
}

// TestWilsonCI99: the Wilson interval covers the point estimate, stays in
// [0,1], and — unlike the normal approximation — does not collapse to a
// point at p=0 or p=1.
func TestWilsonCI99(t *testing.T) {
	// p=0 over 10 runs: normal margin lies (0), Wilson still spans ~40%.
	var clean Tally
	for i := 0; i < 10; i++ {
		clean.Add(faults.Result{Outcome: faults.Masked})
	}
	if clean.ErrMargin99() != 0 {
		t.Fatalf("normal margin at p=0 = %v (test premise)", clean.ErrMargin99())
	}
	lo, hi := clean.CI99()
	if lo != 0 || hi < 0.3 || hi > 0.5 {
		t.Errorf("Wilson CI at 0/10 = [%v, %v], want [0, ~0.40]", lo, hi)
	}
	if clean.Margin99() <= 0 {
		t.Errorf("Wilson margin at p=0 must stay positive, got %v", clean.Margin99())
	}

	// p=1 is symmetric.
	var dirty Tally
	for i := 0; i < 10; i++ {
		dirty.Add(faults.Result{Outcome: faults.SDC})
	}
	dlo, dhi := dirty.CI99()
	if math.Abs(dlo-(1-hi)) > 1e-12 || dhi != 1 {
		t.Errorf("Wilson CI at 10/10 = [%v, %v], want symmetric to [%v, %v]", dlo, dhi, lo, hi)
	}

	// Empty tally: vacuous interval, honest half-width.
	var empty Tally
	elo, ehi := empty.CI99()
	if elo != 0 || ehi != 1 || empty.Margin99() != 0.5 {
		t.Errorf("empty CI = [%v, %v], margin %v; want [0,1], 0.5", elo, ehi, empty.Margin99())
	}

	// Large-n, mid-p: Wilson converges to the normal approximation.
	var mid Tally
	for i := 0; i < 3000; i++ {
		o := faults.Masked
		if i < 1500 {
			o = faults.SDC
		}
		mid.Add(faults.Result{Outcome: o})
	}
	if d := math.Abs(mid.Margin99() - mid.ErrMargin99()); d > 1e-4 {
		t.Errorf("Wilson and normal margins diverge at n=3000, p=0.5: %v", d)
	}

	// Interval always contains the point estimate and is ordered.
	f := func(k8, n8 uint8) bool {
		n := int(n8)
		k := int(k8) % (n + 1)
		lo, hi := WilsonCI99(k, n)
		if lo > hi || lo < 0 || hi > 1 {
			return false
		}
		if n == 0 {
			return lo == 0 && hi == 1
		}
		p := float64(k) / float64(n)
		return lo <= p && p <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWilsonCI99Exhaustive: every (k, n) with n <= 5000 yields an ordered
// interval inside [0, 1] that contains k/n, with exact edges at k = 0 and
// k = n — the cases where the closed form's rounding used to leave
// hi = 1-ε at k = n or lo = ε at k = 0.
func TestWilsonCI99Exhaustive(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		for k := 0; k <= n; k++ {
			lo, hi := WilsonCI99(k, n)
			p := float64(k) / float64(n)
			if !(0 <= lo && lo <= p && p <= hi && hi <= 1) {
				t.Fatalf("WilsonCI99(%d, %d) = [%v, %v] does not bracket %v inside [0, 1]", k, n, lo, hi, p)
			}
			if (k == 0 && lo != 0) || (k == n && hi != 1) {
				t.Fatalf("WilsonCI99(%d, %d) = [%v, %v]: edge not exact", k, n, lo, hi)
			}
		}
	}
}

// TestWorstCaseMarginDegenerate: a zero-size sample constrains nothing.
func TestWorstCaseMarginDegenerate(t *testing.T) {
	if !math.IsInf(WorstCaseMargin99(0), 1) || !math.IsInf(WorstCaseMargin99(-5), 1) {
		t.Errorf("WorstCaseMargin99(<=0) = %v, %v, want +Inf", WorstCaseMargin99(0), WorstCaseMargin99(-5))
	}
}

// TestMergeProperty: FR of a merged tally is the weighted mean.
func TestMergeProperty(t *testing.T) {
	f := func(sdc1, n1, sdc2, n2 uint8) bool {
		a := Tally{N: int(n1%50) + int(sdc1%20)}
		a.Counts[faults.SDC] = int(sdc1 % 20)
		a.Counts[faults.Masked] = int(n1 % 50)
		a.N = a.Counts[faults.SDC] + a.Counts[faults.Masked]
		b := Tally{}
		b.Counts[faults.SDC] = int(sdc2 % 20)
		b.Counts[faults.Masked] = int(n2 % 50)
		b.N = b.Counts[faults.SDC] + b.Counts[faults.Masked]
		m := a
		m.Merge(b)
		if m.N != a.N+b.N {
			return false
		}
		if m.Counts[faults.SDC] != a.Counts[faults.SDC]+b.Counts[faults.SDC] {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroRuns(t *testing.T) {
	tl := Run(Options{Runs: 0, Seed: 1}, fakeExperiment)
	if tl.N != 0 {
		t.Errorf("zero-run campaign tallied %d", tl.N)
	}
}
