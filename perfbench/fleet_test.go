package main

import (
	"testing"

	"gpurel"
	"gpurel/internal/campaign"
	"gpurel/internal/gpu"
	"gpurel/internal/softfi"
)

// A small fleet — two workers, three points — returns tallies bit-identical
// to the in-process Study.MicroTally and Study.SoftTally of the same points,
// and its traced HTTP calls yield the service and fleet figures.
func TestFleetSmokeMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds golden runs")
	}
	const seed = 3
	pts := []gpurel.PointSpec{
		{Layer: gpurel.LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.RF},
		{Layer: gpurel.LayerMicro, App: "VA", Kernel: "K1", Structure: gpu.L2},
		{Layer: gpurel.LayerSoft, App: "VA", Kernel: "K1", Mode: softfi.SVF},
	}
	local := newStudy(seed, 0)
	want := map[string]campaign.Tally{}
	for _, p := range pts {
		tl, err := inProcess(local, p)
		if err != nil {
			t.Fatal(err)
		}
		want[pointID(p)] = tl
	}

	rec, cur, log := newRecorder(), &cursor{}, &httpLog{}
	rec.on.Store(true)
	f, err := startFleet(pts, seed, t.TempDir(), rec, cur, log, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{studies: f.studies, exec: f.submit, fleet: f, workers: fleetWorkers}
	var errs []string
	passes := runPasses(e, pts, config{seed: seed}, 0, newChecker(want), rec, cur, 0, &errs)
	// Counted before close: a worker drained mid-report hands back a lease
	// the coordinator already settled, and that refusal is not a campaign
	// error.
	if n := f.httpErrors(); n != 0 {
		t.Errorf("%d failed HTTP requests", n)
	}
	if err := f.close(); err != nil {
		t.Errorf("fleet close: %v", err)
	}
	if len(passes) != 1 || passes[0].failed != 0 {
		t.Fatalf("fleet tallies differ from in-process ones: %v", errs)
	}

	got := map[string]float64{}
	fleetFigures(log.snapshot(), passes, passes[0].dur, fleetWorkers, func(n string, v float64) { got[n] = v })
	if got["fleet.leases_per_job"] < 1 || got["service.submit_ms_p50"] <= 0 || got["fleet.report_rtt_ms_p50"] <= 0 {
		t.Errorf("fleet figures missing: %v", got)
	}
	runs := 0
	for _, sp := range rec.snapshot() {
		if sp.Name == "microfi.inject" || sp.Name == "softfi.inject" {
			runs++
			if sp.Point == 0 || sp.Parent == 0 {
				t.Fatalf("run span outside a point: %+v", sp)
			}
		}
	}
	if runs != len(pts)*runsPerPoint {
		t.Errorf("%d run spans, want %d", runs, len(pts)*runsPerPoint)
	}
}
