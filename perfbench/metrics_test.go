package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) || len(d.name) > 64 {
				t.Errorf("metric name %q", d.name)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
			if d.unit == "" {
				t.Errorf("metric %q has no unit", d.name)
			}
		}
	}
}

// BENCHMARK.json at the repository root lists exactly the metrics and
// workloads this program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloadNames[i])
		}
	}
}

func TestWorkloadSizes(t *testing.T) {
	for w, want := range map[string]int{"avf": 230, "svf": 69, "fleet": 138} {
		pts, err := workloadPoints(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != want {
			t.Errorf("%s: %d points, want %d", w, len(pts), want)
		}
		ids := map[string]bool{}
		for _, p := range pts {
			if ids[pointID(p)] {
				t.Errorf("%s: point %s twice", w, pointID(p))
			}
			ids[pointID(p)] = true
		}
	}
	if _, err := workloadPoints("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
