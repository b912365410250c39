package fleet_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"gpurel"
	"gpurel/client"
	"gpurel/internal/campaign"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

// BenchmarkFleet_Scaling measures fleet throughput on a real SRADv1 RF
// campaign: the same coordinator-only daemon (local execution disabled)
// driven first by one worker, then by two. Work arrives in 15-run leases so
// the tail stays balanced; two workers on two cores must clear at least
// 1.7× the single-worker throughput, with bit-identical tallies.
//
// Set GPUREL_BENCH_JSON=path to export the measurements as a JSON artifact
// (CI uploads it as BENCH_fleet.json).
func BenchmarkFleet_Scaling(b *testing.B) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		b.Skip("fleet scaling needs at least two cores to mean anything")
	}

	// One shared study per benchmark process: the golden SRADv1 runs are
	// memoised, so neither fleet size pays construction costs inside the
	// timed region (warmed below), mirroring long-lived worker processes.
	study := gpurel.NewStudy(0, 1)
	source := service.NewStudySource(study)
	spec := service.JobSpec{
		Layer: "micro", App: "SRADv1", Kernel: "K4", Structure: "RF",
		Runs: 240, Seed: 7,
	}
	if fn, err := source(spec); err != nil {
		b.Fatal(err)
	} else {
		campaign.RunRange(campaign.Options{Runs: spec.Runs, Seed: spec.Seed}, 0, 1, fn)
	}

	var d1, d2 time.Duration
	var t1, t2 campaign.Tally
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1, d1 = runFleet(b, source, spec, 1)
		t2, d2 = runFleet(b, source, spec, 2)
	}
	b.StopTimer()

	if t1 != t2 {
		b.Fatalf("fleet tallies differ by worker count: 1w %+v, 2w %+v", t1, t2)
	}
	speedup := d1.Seconds() / d2.Seconds()
	b.ReportMetric(speedup, "x-speedup")
	b.ReportMetric(d1.Seconds()/float64(spec.Runs)*1e9, "ns/run-1w")
	b.ReportMetric(d2.Seconds()/float64(spec.Runs)*1e9, "ns/run-2w")
	if speedup < 1.7 {
		b.Fatalf("2-worker fleet speedup %.2fx, want >= 1.7x (1w %v, 2w %v)", speedup, d1, d2)
	}

	if path := os.Getenv("GPUREL_BENCH_JSON"); path != "" {
		out, err := json.MarshalIndent(map[string]any{
			"benchmark":        "Fleet_Scaling",
			"app":              spec.App,
			"kernel":           spec.Kernel,
			"structure":        spec.Structure,
			"runs":             spec.Runs,
			"workers_1_sec":    d1.Seconds(),
			"workers_2_sec":    d2.Seconds(),
			"speedup":          speedup,
			"runs_per_sec_1w":  float64(spec.Runs) / d1.Seconds(),
			"runs_per_sec_2w":  float64(spec.Runs) / d2.Seconds(),
			"tally_identical":  t1 == t2,
			"speedup_floor_ok": speedup >= 1.7,
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// runFleet executes one campaign on a coordinator-only daemon with n
// workers and returns the final tally and wall-clock duration. Each call
// builds a fresh scheduler (jobs are process state) but shares the study
// source, like a restarted coordinator in a warm fleet.
func runFleet(b testing.TB, source service.SourceFunc, spec service.JobSpec, n int) (campaign.Tally, time.Duration) {
	b.Helper()
	sched, err := service.NewScheduler(service.Config{Source: source, DisableLocalExec: true})
	if err != nil {
		b.Fatal(err)
	}
	defer sched.Close()
	coord, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{
		LeaseRuns: 15, LeaseTTL: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(service.NewServer(sched).Handler(coord.Mount))
	defer srv.Close()

	stops := make([]func(), 0, n)
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < n; i++ {
		_, stop := startBenchWorker(b, fleet.WorkerConfig{
			Client: client.New(srv.URL), Source: source,
			Chunk: 15, Workers: 1,
		})
		stops = append(stops, stop)
	}

	start := time.Now()
	st, err := sched.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		got, ok := sched.Get(st.ID)
		if !ok {
			b.Fatalf("job %s vanished", st.ID)
		}
		if got.State == service.StateDone {
			return got.Tally, time.Since(start)
		}
		if got.State.Terminal() || time.Now().After(deadline) {
			b.Fatalf("fleet campaign stuck: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}
}

func startBenchWorker(b testing.TB, cfg fleet.WorkerConfig) (*fleet.Worker, func()) {
	b.Helper()
	w, err := fleet.NewWorker(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck — canceled at teardown
	}()
	return w, func() {
		cancel()
		<-done
	}
}
