package microfi

import (
	"math/rand"
	"testing"

	"gpurel/internal/ace"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/sim"
)

// overAllocJob is saxpy with four padding registers per thread: allocated in
// the RF but never touched by any instruction, so statically provably dead.
// Real kernels carry such over-allocation too (allocation granularity).
func overAllocJob(n int) *device.Job {
	job := saxpyJob(n)
	job.Steps[0].Launch.Kernel.NumRegs += 4
	return job
}

// TestStaticDeadRegs: flow.AlwaysDead flags an over-allocated kernel's
// padding registers (and not every register), and the interval map agrees —
// every allocated RF entry holding an always-dead register lies outside
// every live interval at each sampled cycle, so the interval prune covers
// all the boolean always-dead analysis could.
func TestStaticDeadRegs(t *testing.T) {
	job := overAllocJob(256)
	prog := job.Steps[0].Launch.Kernel
	d := flow.AlwaysDead(prog)
	if len(d) != prog.NumRegs {
		t.Fatalf("dead map has %d entries, want %d", len(d), prog.NumRegs)
	}
	for r := prog.NumRegs - 4; r < prog.NumRegs; r++ {
		if !d[r] {
			t.Errorf("padding register R%d must be statically dead", r)
		}
	}
	nDead := 0
	for _, v := range d {
		if v {
			nDead++
		}
	}
	if nDead == prog.NumRegs {
		t.Error("every register statically dead — analysis is broken")
	}

	g, err := Golden(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	si, err := g.Intervals()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, span := range g.Res.Spans {
		for s := 0; s < 8; s++ {
			cycle := span.Start + 1 + (span.End-span.Start-1)*int64(s)/8
			for sm := 0; sm < si.IV.NumSMs(); sm++ {
				for _, blk := range si.IV.RFBlocksAt(sm, cycle, nil) {
					for k := 0; k < blk.Size; k++ {
						if !d[k%prog.NumRegs] {
							continue
						}
						checked++
						if si.IV.LiveRF(sm, blk.Base+k, cycle) {
							t.Fatalf("always-dead R%d interval-live at sm=%d phys=%d cycle=%d",
								k%prog.NumRegs, sm, blk.Base+k, cycle)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no always-dead site sampled")
	}
}

// TestStaticSubsetOfDynamic proves the soundness property of flow.AlwaysDead
// on every built-in kernel of all 11 apps: a statically-dead architectural
// register is
// dynamically dead at every allocated site and cycle of the traced run
// (static-dead ⊆ ace-dead). The converse is of course false — the dynamic
// map also knows about last-read-to-overwrite windows.
func TestStaticSubsetOfDynamic(t *testing.T) {
	cfg := gpu.Volta()
	for _, app := range kernels.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			job := app.Build()
			progByName := map[string]*deadProg{}
			for i := range job.Steps {
				if l := job.Steps[i].Launch; l != nil {
					progByName[l.Name()] = &deadProg{numRegs: l.Kernel.NumRegs, dead: flow.AlwaysDead(l.Kernel)}
				}
			}
			g, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lv, err := ace.TraceRF(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checked, deadSites := 0, 0
			for _, span := range g.Res.Spans {
				dp := progByName[span.Kernel]
				if dp == nil {
					t.Fatalf("span kernel %q has no launch", span.Kernel)
				}
				// Sample cycles across the span; launches are sequential, so
				// every block allocated in this window belongs to this kernel.
				for s := 0; s < 8; s++ {
					cycle := span.Start + 1 + (span.End-span.Start-1)*int64(s)/8
					for sm := 0; sm < lv.NumSMs(); sm++ {
						for _, blk := range lv.RFBlocksAt(sm, cycle, nil) {
							for k := 0; k < blk.Size; k++ {
								if !dp.dead[k%dp.numRegs] {
									continue
								}
								deadSites++
								if lv.Live(sm, blk.Base+k, cycle) {
									t.Fatalf("kernel %s: statically-dead R%d live at sm=%d phys=%d cycle=%d",
										span.Kernel, k%dp.numRegs, sm, blk.Base+k, cycle)
								}
							}
							checked += blk.Size
						}
					}
				}
			}
			t.Logf("%s: %d sites checked, %d statically dead", app.Name, checked, deadSites)
		})
	}
}

type deadProg struct {
	numRegs int
	dead    []bool
}

// timeline is an allocation timeline with a liveness oracle over it: the
// static interval map, or the dynamic ace.Liveness reference.
type timeline struct {
	numSMs   int
	blocksAt func(sm int, cycle int64) []sim.RFBlock
	live     func(sm, idx int, cycle int64) bool
	bits     int
}

// staticTimeline is the interval map's timeline for RF or SMEM.
func staticTimeline(si *StaticIntervals, st gpu.Structure) timeline {
	blocksAt, live, bits := si.IV.RFBlocksAt, si.IV.LiveRF, 32
	if st == gpu.SMEM {
		blocksAt, live, bits = si.IV.SmemBlocksAt, si.IV.LiveSmem, 8
	}
	return timeline{
		numSMs: si.IV.NumSMs(),
		blocksAt: func(sm int, cycle int64) []sim.RFBlock {
			var out []sim.RFBlock
			for _, b := range blocksAt(sm, cycle, nil) {
				out = append(out, sim.RFBlock{Base: b.Base, Size: b.Size})
			}
			return out
		},
		live: live,
		bits: bits,
	}
}

// aceTimeline is the dynamic RF liveness reference's timeline.
func aceTimeline(lv *ace.Liveness) timeline {
	return timeline{
		numSMs:   lv.NumSMs(),
		blocksAt: func(sm int, cycle int64) []sim.RFBlock { return lv.RFBlocksAt(sm, cycle, nil) },
		live:     lv.Live,
		bits:     32,
	}
}

// preclassified replays the transient injector's draws for seed against tl
// without simulating anything and reports whether the run classifies
// analytically: nothing allocated at the drawn cycle, or a dead site. Runs
// screened before the site draw (empty window, ECC) are never
// preclassified.
func preclassified(g *GoldenRun, tgt Target, tl timeline, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	cycle, _, done := tgt.preflight(g, tgt.model(), rng)
	if done {
		return false
	}
	var (
		blocks []sim.RFBlock
		smOf   []int
		total  int
	)
	for sm := 0; sm < tl.numSMs; sm++ {
		for _, b := range tl.blocksAt(sm, cycle) {
			blocks = append(blocks, b)
			smOf = append(smOf, sm)
			total += b.Size
		}
	}
	if total == 0 {
		return true
	}
	k := rng.Intn(total)
	_ = rng.Intn(tl.bits) // bit draw, irrelevant to deadness
	for i, b := range blocks {
		if k < b.Size {
			return !tl.live(smOf[i], b.Base+k, cycle)
		}
		k -= b.Size
	}
	panic("preclassified: overran the allocation timeline")
}

// TestStaticIntervalPruneProperty is the per-app prune property: on every
// shipped app × seed, the interval prune classifies bit-identically to
// brute force on RF and SMEM, and campaign tallies match. The pruned
// campaign runs first on parallel workers, so the golden run's interval map
// is built lazily under concurrent first use.
func TestStaticIntervalPruneProperty(t *testing.T) {
	cfg := gpu.Volta()
	for _, app := range kernels.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			job := app.Build()
			g, err := Golden(job, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM} {
				seeds := int64(10)
				if st == gpu.SMEM {
					seeds = 6
				}
				plain, pruneTgt := Target{Structure: st}, Target{Structure: st, Prune: true}
				opts := campaign.Options{Runs: int(seeds), Workers: 4}
				counters := &adaptive.Counters{}
				static := campaign.Run(opts, counters.Instrument(func(run int, rng *rand.Rand) (faults.Result, bool) {
					return Inject(job, g, pruneTgt, rng)
				}))
				if brute := campaign.Run(opts, experiment(job, g, plain)); brute != static {
					t.Fatalf("%s: campaign tallies differ: brute=%+v static=%+v", st, brute, static)
				}
				for seed := int64(0); seed < seeds; seed++ {
					want, _ := injectSeed(job, g, plain, seed)
					got, pruned := injectSeed(job, g, pruneTgt, seed)
					if got != want {
						t.Fatalf("%s seed %d: interval prune altered the outcome: %+v (pruned=%v) != %+v",
							st, seed, got, pruned, want)
					}
				}
				t.Logf("%s: interval pruned %d/%d", st, counters.Pruned.Load(), seeds)
			}
		})
	}
}

// BenchmarkStaticPrune measures the interval prune's pre-classification at
// fixed draw seeds 0..399 on every app and asserts its acceptance gate
// against the dynamic reference: per app, the RF runs the interval map
// pre-classifies are at least 99% of those ace.Liveness would (the static
// map over-approximates liveness, so it can only trail the dynamic one),
// the SMEM prune — which the dynamic reference cannot offer — fires on
// every app, and pruned campaign tallies are bit-identical to brute force.
func BenchmarkStaticPrune(b *testing.B) {
	cfg := gpu.Volta()
	type appState struct {
		app kernels.App
		job *device.Job
		g   *GoldenRun
		si  *StaticIntervals
		lv  *ace.Liveness
	}
	var apps []appState
	for _, app := range kernels.All() {
		job := app.Build()
		g, err := Golden(job, cfg)
		if err != nil {
			b.Fatal(err)
		}
		si, err := g.Intervals()
		if err != nil {
			b.Fatal(err)
		}
		lv, err := ace.TraceRF(job, cfg)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, appState{app, job, g, si, lv})
	}
	const drawSeeds = 400
	rf, smem := Target{Structure: gpu.RF}, Target{Structure: gpu.SMEM}
	ivRF := make([]int, len(apps))
	aceRF := make([]int, len(apps))
	ivSmem := make([]int, len(apps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ai := range apps {
			a := &apps[ai]
			rfIv, rfAce, smemIv := staticTimeline(a.si, gpu.RF), aceTimeline(a.lv), staticTimeline(a.si, gpu.SMEM)
			ivRF[ai], aceRF[ai], ivSmem[ai] = 0, 0, 0
			for seed := int64(0); seed < drawSeeds; seed++ {
				if preclassified(a.g, rf, rfIv, seed) {
					ivRF[ai]++
				}
				if preclassified(a.g, rf, rfAce, seed) {
					aceRF[ai]++
				}
				if preclassified(a.g, smem, smemIv, seed) {
					ivSmem[ai]++
				}
			}
		}
	}
	b.StopTimer()

	var sumRF, sumAce, sumSmem float64
	for ai, a := range apps {
		b.Logf("%-10s RF interval %3d  ace %3d   SMEM interval %3d   (of %d draws)",
			a.app.Name, ivRF[ai], aceRF[ai], ivSmem[ai], drawSeeds)
		if float64(ivRF[ai]) < 0.99*float64(aceRF[ai]) {
			b.Errorf("%s: interval RF prune %d < 0.99 × dynamic reference %d", a.app.Name, ivRF[ai], aceRF[ai])
		}
		if ivSmem[ai] == 0 {
			b.Errorf("%s: interval SMEM prune never fires", a.app.Name)
		}
		sumRF += float64(ivRF[ai]) / drawSeeds
		sumAce += float64(aceRF[ai]) / drawSeeds
		sumSmem += float64(ivSmem[ai]) / drawSeeds
	}
	n := float64(len(apps))
	b.ReportMetric(100*sumRF/n, "%rf-interval-pruned")
	b.ReportMetric(100*sumAce/n, "%rf-ace-pruned")
	b.ReportMetric(100*sumSmem/n, "%smem-interval-pruned")

	// Bit-identity of the end-to-end campaign, small seed set per app.
	for _, a := range apps {
		for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM} {
			var brute, pruned [faults.NumOutcomes]int
			for seed := int64(0); seed < 5; seed++ {
				r, _ := injectSeed(a.job, a.g, Target{Structure: st}, seed)
				brute[r.Outcome]++
				r, _ = injectSeed(a.job, a.g, Target{Structure: st, Prune: true}, seed)
				pruned[r.Outcome]++
			}
			if brute != pruned {
				b.Fatalf("%s %s: tallies differ: brute=%v pruned=%v", a.app.Name, st, brute, pruned)
			}
		}
	}
}
