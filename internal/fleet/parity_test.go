package fleet_test

import (
	"math/rand"
	"testing"
	"time"

	"gpurel/client"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/fleet"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
	"gpurel/internal/service"
)

// TestFleetLegacyParity closes the execution-core A/B loop over the fleet
// path: the same checkpointed RF campaign, split across two fleet workers,
// must tally bit-identically whether the workers simulate on the pre-decoded
// µop core or on the reference interpreter (CheckpointSpec.Legacy). Run
// distribution is already execution-order independent; this pins that the
// core choice is too.
func TestFleetLegacyParity(t *testing.T) {
	const runs, seed = 80, 13
	cfg := gpu.Volta()
	app, err := kernels.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	tallies := make(map[bool]campaign.Tally)
	for _, legacy := range []bool{false, true} {
		job := app.Build()
		g, err := microfi.GoldenCheckpointed(job, cfg, microfi.CheckpointSpec{
			Stride: microfi.AutoStride, Converge: true, Legacy: legacy,
		})
		if err != nil {
			t.Fatal(err)
		}
		tgt := microfi.Target{Structure: gpu.RF}
		source := func(spec service.JobSpec) (campaign.Experiment, error) {
			return func(run int, rng *rand.Rand) faults.Result {
				r, _ := microfi.Inject(job, g, tgt, rng)
				return r
			}, nil
		}
		sched, _, srv := harness(t,
			service.Config{Source: source, DisableLocalExec: true},
			fleet.CoordinatorConfig{LeaseRuns: 20, LeaseTTL: 5 * time.Second, Sweep: 50 * time.Millisecond},
		)
		st, err := sched.Submit(service.JobSpec{Layer: "micro", App: app.Name, Kernel: "K1", Runs: runs, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"w1", "w2"} {
			startWorker(t, fleet.WorkerConfig{
				ID: id, Client: client.New(srv.URL), Source: source,
				Chunk: 20, Workers: 2, Backoff: testBackoff,
			})
		}
		final := waitTerminal(t, sched, st.ID, 60*time.Second)
		if final.State != service.StateDone || final.Done != runs {
			t.Fatalf("legacy=%v: job = %+v", legacy, final)
		}
		tallies[legacy] = final.Tally
	}
	if tallies[false] != tallies[true] {
		t.Errorf("fleet campaign diverges across cores:\nµop       %+v\nreference %+v",
			tallies[false], tallies[true])
	}
}
