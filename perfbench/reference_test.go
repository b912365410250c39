package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func committedReference(t *testing.T) map[string]map[string][]int {
	t.Helper()
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	if ref.N != runsPerPoint {
		t.Fatalf("reference n=%d, benchmark n=%d", ref.N, runsPerPoint)
	}
	out := map[string]map[string][]int{}
	for seed, rows := range ref.Tallies {
		out[seed] = map[string][]int{}
		for i, row := range rows {
			out[seed][ref.Points[i]] = row
		}
	}
	return out
}

// Every point of every workload has a reference tally at the default seed.
func TestReferenceCoversEveryWorkload(t *testing.T) {
	ref := committedReference(t)["1"]
	if ref == nil {
		t.Fatal("no reference for the default seed 1")
	}
	for _, w := range workloadNames {
		pts, err := workloadPoints(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if _, ok := ref[pointID(p)]; !ok {
				t.Errorf("%s: no reference for %s", w, pointID(p))
			}
		}
	}
}

// A tally one count away from its reference fails the check, whichever
// field moved.
func TestCheckerCatchesOneCountChange(t *testing.T) {
	r, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r.forSeed(1)
	if err != nil || ref == nil {
		t.Fatalf("seed 1 reference: %v", err)
	}
	id := r.Points[0]
	want := ref[id]
	if err := newChecker(ref).check(id, want, nil); err != nil {
		t.Fatalf("reference tally rejected: %v", err)
	}
	row := tallyRow(want)
	for i := 1; i < len(row); i++ { // N is checked separately
		for _, d := range []int{-1, 1} {
			moved := append([]int(nil), row...)
			moved[i] += d
			if moved[i] < 0 {
				continue
			}
			got, _ := rowTally(moved)
			if err := newChecker(ref).check(id, got, nil); err == nil {
				t.Errorf("field %d %+d: tally %v accepted against %v", i, d, moved, row)
			}
		}
	}
}

func TestCheckerWithoutReference(t *testing.T) {
	r, _ := loadReference("reference.json")
	ref, _ := r.forSeed(1)
	id := r.Points[0]
	tl := ref[id]
	c := newChecker(nil)
	if err := c.check(id, tl, nil); err != nil {
		t.Fatalf("first pass rejected: %v", err)
	}
	if err := c.check(id, tl, nil); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	moved := tl
	moved.Counts[0]--
	moved.Counts[1]++
	if err := c.check(id, moved, nil); err == nil {
		t.Error("a repeat differing from the first pass was accepted")
	}
	short := tl
	short.N--
	if err := newChecker(nil).check(id, short, nil); err == nil {
		t.Error("a tally short of n runs was accepted")
	}
}

func TestReferenceEncodeRoundTrip(t *testing.T) {
	r, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(path, r.encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := loadReference(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.encode(), r.encode()) {
		t.Error("reference changed across an encode/load round trip")
	}
}
