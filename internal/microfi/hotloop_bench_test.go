package microfi

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"gpurel/internal/campaign"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
)

// BenchmarkInject_Throughput is the hot-loop acceptance benchmark: a fixed
// checkpointed RF campaign on the pre-decoded µop core must sustain at
// least 3× the single-core runs/sec of the reference engine
// (CheckpointSpec.Legacy — the verbatim pre-overhaul execution loop,
// scheduler, full-copy snapshot restores, and standalone snapshot
// accounting), while tallying bit-identically.
//
// The comparison holds the snapshot *memory budget* equal, not the
// checkpoint grid: both cores ask for a dense grid under the same
// BudgetBytes, and each retains what its snapshot representation can
// afford. Copy-on-write page sharing lets the µop core keep the full grid
// where the reference core's standalone snapshots force budget-driven
// stride widening — exactly the trade the pre-overhaul engine faced — so
// faulty forks on the fast core resume closer to their injection cycle.
//
// With GPUREL_BENCH_JSON set, a machine-readable summary is written there
// for the CI artifact.
func BenchmarkInject_Throughput(b *testing.B) {
	cfg := gpu.Volta()
	app, err := kernels.ByName("SRADv1")
	if err != nil {
		b.Fatal(err)
	}
	job := app.Build()
	probe, err := Golden(job, cfg)
	if err != nil {
		b.Fatal(err)
	}
	const (
		runs      = 60
		gridSnaps = 64
		budget    = 48 << 20
	)
	spec := CheckpointSpec{Stride: probe.Res.Cycles / gridSnaps, BudgetBytes: budget, Converge: true}
	fast, err := GoldenCheckpointed(job, cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	spec.Legacy = true
	slow, err := GoldenCheckpointed(job, cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	fastCk, slowCk := fast.CheckpointCounts(), slow.CheckpointCounts()
	b.Logf("snapshots in %dMB budget: µop/COW %d (%.1fMB), reference %d (%.1fMB)",
		budget>>20, fastCk.Snapshots, float64(fastCk.SnapshotBytes)/(1<<20),
		slowCk.Snapshots, float64(slowCk.SnapshotBytes)/(1<<20))
	tgt := Target{Structure: gpu.RF}
	opts := campaign.Options{Runs: runs, Seed: 11, Workers: 1}

	// Alternate the two cores and keep each side's best pass: a transient
	// load spike then degrades one measurement of one side, not the ratio.
	const passes = 2
	var slowTally, fastTally campaign.Tally
	var slowDur, fastDur time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var slowBest, fastBest time.Duration
		for p := 0; p < passes; p++ {
			t0 := time.Now()
			slowTally = campaign.Run(opts, experiment(job, slow, tgt))
			t1 := time.Now()
			fastTally = campaign.Run(opts, experiment(job, fast, tgt))
			fd, sd := time.Since(t1), t1.Sub(t0)
			if p == 0 || sd < slowBest {
				slowBest = sd
			}
			if p == 0 || fd < fastBest {
				fastBest = fd
			}
		}
		slowDur += slowBest
		fastDur += fastBest
	}
	b.StopTimer()

	if fastTally != slowTally {
		b.Fatalf("µop-core tally %+v != reference-engine tally %+v", fastTally, slowTally)
	}
	total := runs * b.N
	fastRPS := float64(total) / fastDur.Seconds()
	slowRPS := float64(total) / slowDur.Seconds()
	speedup := fastRPS / slowRPS
	if speedup < 3 {
		b.Fatalf("µop core only %.2f× the reference engine's throughput (%.1f vs %.1f runs/sec), want >= 3×",
			speedup, fastRPS, slowRPS)
	}
	b.ReportMetric(speedup, "x-speedup")
	b.ReportMetric(fastRPS, "runs/sec")
	b.ReportMetric(float64(fastDur.Nanoseconds())/float64(total), "ns/run")

	if path := os.Getenv("GPUREL_BENCH_JSON"); path != "" {
		out, err := json.MarshalIndent(map[string]any{
			"benchmark":        "Inject_Throughput",
			"app":              app.Name,
			"runs":             total,
			"budget_bytes":     int64(budget),
			"snapshots":        fastCk.Snapshots,
			"legacy_snapshots": slowCk.Snapshots,
			"runs_per_sec":     fastRPS,
			"legacy_runs_sec":  slowRPS,
			"speedup":          speedup,
			"ns_run":           float64(fastDur.Nanoseconds()) / float64(total),
			"legacy_ns_run":    float64(slowDur.Nanoseconds()) / float64(total),
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
