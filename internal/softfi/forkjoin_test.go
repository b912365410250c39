package softfi

import (
	"math/rand"
	"testing"

	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/funcsim"
	"gpurel/internal/harden"
	"gpurel/internal/kernels"
)

// scratch classifies one injection run from instruction 0 on a fresh memory
// clone: the reference every forked run must reproduce.
func scratch(job *device.Job, g *GoldenRun, inj funcsim.Injection) *funcsim.Result {
	return funcsim.Run(job, funcsim.Options{MaxDynInstrs: g.budget(), Inject: &inj})
}

// TestSoftInjectForkJoinParity: on every app, plain and TMR, in every mode,
// for each kernel and the whole app, a forked (and possibly rejoined) run
// must equal the run from scratch in outcome, dynamic instruction count and
// timeout. Forks and joins must both fire on every app and variant, so the
// comparison covers both halves of the scheme.
func TestSoftInjectForkJoinParity(t *testing.T) {
	const seeds = 15
	for _, app := range kernels.All() {
		for _, hard := range []bool{false, true} {
			app, hard := app, hard
			name := app.Name + "/plain"
			if hard {
				name = app.Name + "/tmr"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				job := app.Build()
				if hard {
					job = harden.TMR(job)
				}
				g, err := Golden(job)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range append(append([]string(nil), app.Kernels...), "") {
					for _, m := range []Mode{SVF, SVFLD, SVFUse} {
						tgt := Target{Kernel: k, Mode: m, IncludeVote: hard}
						for seed := int64(0); seed < seeds; seed++ {
							inj, ok := tgt.draw(g, rand.New(rand.NewSource(seed)))
							if !ok {
								t.Fatalf("kernel %q %v: no candidates", k, m)
							}
							got, want := g.run(job, inj), scratch(job, g, inj)
							if Classify(g, got) != Classify(g, want) || got.DynInstrs != want.DynInstrs || got.TimedOut != want.TimedOut {
								t.Fatalf("kernel %q %v seed %d %+v: forked %+v (%d instrs, timeout %v), scratch %+v (%d instrs, timeout %v)",
									k, m, seed, inj, Classify(g, got), got.DynInstrs, got.TimedOut,
									Classify(g, want), want.DynInstrs, want.TimedOut)
							}
						}
					}
				}
				if c := g.Counts(); c.Forks == 0 || c.Joins == 0 || c.InstrsSkipped == 0 {
					t.Errorf("fork-and-join did not fire: %+v", c)
				}
			})
		}
	}
	// Two workers share one GoldenRun, so -race sees concurrent use of the
	// workspace pool and the shared checkpoints.
	t.Run("campaign", func(t *testing.T) {
		t.Parallel()
		app, err := kernels.ByName("SRADv1")
		if err != nil {
			t.Fatal(err)
		}
		for _, hard := range []bool{false, true} {
			job := app.Build()
			if hard {
				job = harden.TMR(job)
			}
			g, err := Golden(job)
			if err != nil {
				t.Fatal(err)
			}
			tgt := Target{Mode: SVF}
			opts := campaign.Options{Runs: 120, Seed: 5, Workers: 2}
			got := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
				return Inject(job, g, tgt, rng)
			})
			first := g.Counts()
			opts.Workers = 1
			want := campaign.Run(opts, func(run int, rng *rand.Rand) faults.Result {
				inj, _ := tgt.draw(g, rng)
				return Classify(g, scratch(job, g, inj))
			})
			if got != want {
				t.Fatalf("tmr=%v: two-worker forked tally %+v, scratch %+v", hard, got, want)
			}
			again := campaign.Run(campaign.Options{Runs: 120, Seed: 5, Workers: 2}, func(run int, rng *rand.Rand) faults.Result {
				return Inject(job, g, tgt, rng)
			})
			if again != got {
				t.Fatalf("tmr=%v: rerun tally %+v, first %+v", hard, again, got)
			}
			if c := g.Counts(); c.Forks != 2*first.Forks || c.Joins != 2*first.Joins || c.InstrsSkipped != 2*first.InstrsSkipped {
				t.Errorf("tmr=%v: counts not deterministic: %+v after one campaign, %+v after two", hard, first, c)
			}
		}
	})
}
