package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"gpurel"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
)

// reference holds the tallies recorded through Study.MicroTally and
// Study.SoftTally — the library's own figure path — for every point of the
// avf and svf workloads (the fleet points are a subset) at n runs per point.
type reference struct {
	N       int                `json:"n"`
	Points  []string           `json:"points"`
	Tallies map[string][][]int `json:"tallies"` // seed → one row per point
}

// tallyRow flattens a tally as N, the outcome counts, and CtrlAffected.
func tallyRow(t campaign.Tally) []int {
	row := append([]int{t.N}, t.Counts[:]...)
	return append(row, t.CtrlAffected)
}

func rowTally(row []int) (campaign.Tally, error) {
	var t campaign.Tally
	if len(row) != int(faults.NumOutcomes)+2 {
		return t, fmt.Errorf("reference row has %d fields, want %d", len(row), int(faults.NumOutcomes)+2)
	}
	t.N = row[0]
	copy(t.Counts[:], row[1:1+faults.NumOutcomes])
	t.CtrlAffected = row[len(row)-1]
	return t, nil
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for seed, rows := range r.Tallies {
		if len(rows) != len(r.Points) {
			return nil, fmt.Errorf("%s: seed %s has %d rows for %d points", path, seed, len(rows), len(r.Points))
		}
	}
	return &r, nil
}

// forSeed returns the reference tallies of one seed by point id, or nil
// when the seed was not recorded (or n differs from runsPerPoint).
func (r *reference) forSeed(seed int64) (map[string]campaign.Tally, error) {
	rows, ok := r.Tallies[strconv.FormatInt(seed, 10)]
	if !ok || r.N != runsPerPoint {
		return nil, nil
	}
	out := make(map[string]campaign.Tally, len(rows))
	for i, row := range rows {
		t, err := rowTally(row)
		if err != nil {
			return nil, err
		}
		out[r.Points[i]] = t
	}
	return out, nil
}

// checker decides whether one point's tally is correct: it must come
// without error, count n runs, equal the reference when one was recorded,
// and equal the same point's tally from the run's first pass.
type checker struct {
	ref   map[string]campaign.Tally // nil: no reference for this seed
	first map[string]campaign.Tally
}

func newChecker(ref map[string]campaign.Tally) *checker {
	return &checker{ref: ref, first: map[string]campaign.Tally{}}
}

func (c *checker) check(id string, t campaign.Tally, err error) error {
	if err != nil {
		return err
	}
	if t.N != runsPerPoint {
		return fmt.Errorf("%s: %d runs, want %d", id, t.N, runsPerPoint)
	}
	if c.ref != nil {
		want, ok := c.ref[id]
		if !ok {
			return fmt.Errorf("%s: no reference tally", id)
		}
		if t != want {
			return fmt.Errorf("%s: tally %v differs from reference %v", id, tallyRow(t), tallyRow(want))
		}
	}
	if prev, ok := c.first[id]; ok && prev != t {
		return fmt.Errorf("%s: tally %v differs from first pass %v", id, tallyRow(t), tallyRow(prev))
	}
	c.first[id] = t
	return nil
}

// recordReference runs every avf and svf point through a fresh study's
// MicroTally/SoftTally for each seed and writes the reference file.
func recordReference(path string, seeds []int64, progress func(string)) error {
	avf, _ := workloadPoints("avf")
	svf, _ := workloadPoints("svf")
	pts := append(avf, svf...)
	ref := reference{N: runsPerPoint, Tallies: map[string][][]int{}}
	for _, p := range pts {
		ref.Points = append(ref.Points, pointID(p))
	}
	for _, seed := range seeds {
		s := newStudy(seed, defaultWorkers())
		rows := make([][]int, 0, len(pts))
		for _, p := range pts {
			t, err := inProcess(s, p)
			if err != nil {
				return fmt.Errorf("seed %d %s: %w", seed, pointID(p), err)
			}
			rows = append(rows, tallyRow(t))
		}
		ref.Tallies[strconv.FormatInt(seed, 10)] = rows
		progress(fmt.Sprintf("recorded seed %d (%d points)", seed, len(pts)))
	}
	return os.WriteFile(path, ref.encode(), 0o644)
}

// inProcess runs p through the study's own figure path.
func inProcess(s *gpurel.Study, p gpurel.PointSpec) (campaign.Tally, error) {
	if p.Layer == gpurel.LayerSoft {
		return s.SoftTally(p.App, p.Kernel, p.Mode, p.Hardened)
	}
	t, _, err := s.MicroTally(p.App, p.Kernel, p.Structure, p.Hardened)
	return t, err
}

// encode writes one point id, and one seed's rows, per line.
func (r *reference) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n\"n\": %d,\n\"points\": [\n", r.N)
	for i, p := range r.Points {
		q, _ := json.Marshal(p)
		b.Write(q)
		if i < len(r.Points)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("],\n\"tallies\": {\n")
	keys := sortedKeys(r.Tallies)
	for i, k := range keys {
		rows, _ := json.Marshal(r.Tallies[k])
		fmt.Fprintf(&b, "%q: %s", k, rows)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n}\n")
	return b.Bytes()
}
