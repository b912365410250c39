package microfi

import (
	"fmt"
	"math/rand"
	"testing"

	"gpurel/internal/campaign"
	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
	"gpurel/internal/sim"
)

// saxpyJob builds a small float workload with shared memory so every
// structure is exercised.
func saxpyJob(n int) *device.Job {
	b := kasm.New("saxpy")
	tid := b.S2R(isa.SRTidX)
	i := b.IMad(b.S2R(isa.SRCtaIDX), b.S2R(isa.SRNTidX), tid)
	p := b.P()
	b.ISetpI(p, isa.CmpLT, i, int32(n))
	b.If(p, false, func() {
		x := b.Ldg(b.IScAdd(i, b.Param(0), 2), 0)
		b.Sts(b.Shl(tid, 2), 0, x)
		b.Barrier()
		y := b.Lds(b.Shl(tid, 2), 0)
		b.Stg(b.IScAdd(i, b.Param(1), 2), 0, b.FFma(b.MovF(2), x, y))
	})
	b.FreeP(p)
	prog := b.MustBuild()

	m := device.NewMemory(1 << 18)
	in := m.Alloc("in", 4*n)
	out := m.Alloc("out", 4*n)
	vals := make([]float32, n)
	for k := range vals {
		vals[k] = float32(k) * 0.5
	}
	m.WriteF32s(in, vals)
	return &device.Job{
		Name: "saxpy", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, KernelName: "K1", GridX: 4, GridY: 1, BlockX: 64, BlockY: 1,
			SmemBytes: 4 * 64,
			Params:    []uint32{in, out}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: uint32(4 * n)}},
	}
}

// injectSeed runs one experiment on a fresh rand stream seeded with seed.
func injectSeed(job *device.Job, g *GoldenRun, tgt Target, seed int64) (faults.Result, bool) {
	return Inject(job, g, tgt, rand.New(rand.NewSource(seed)))
}

// experiment adapts Inject to a campaign experiment.
func experiment(job *device.Job, g *GoldenRun, tgt Target) campaign.Experiment {
	return func(run int, rng *rand.Rand) faults.Result {
		r, _ := Inject(job, g, tgt, rng)
		return r
	}
}

func TestGolden(t *testing.T) {
	job := saxpyJob(256)
	g, err := Golden(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	if g.Res.Cycles == 0 || len(g.Res.Spans) != 1 {
		t.Fatalf("golden run incomplete: %+v", g.Res)
	}
}

func TestTargetWindowsAndDF(t *testing.T) {
	job := saxpyJob(256)
	g, err := Golden(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range gpu.Structures {
		tgt := Target{Structure: st, Kernel: "K1"}
		if tgt.Windows(g) <= 0 {
			t.Errorf("%s: empty windows", st)
		}
		df := tgt.DF(g)
		if df < 0 || df > 1 {
			t.Errorf("%s: DF = %v out of range", st, df)
		}
		switch st {
		case gpu.RF, gpu.SMEM:
			if df == 0 || df == 1 {
				t.Errorf("%s: DF = %v, expected a proper fraction", st, df)
			}
		default:
			if df != 1 {
				t.Errorf("%s: caches must have DF=1, got %v", st, df)
			}
		}
	}
	// unknown kernel → no windows
	none := Target{Structure: gpu.RF, Kernel: "nope"}
	if none.Windows(g) != 0 {
		t.Error("unknown kernel must have an empty window")
	}
}

func TestInjectAllStructures(t *testing.T) {
	job := saxpyJob(256)
	g, err := Golden(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range gpu.Structures {
		tgt := Target{Structure: st, Kernel: "K1"}
		var counts [faults.NumOutcomes]int
		for seed := int64(0); seed < 40; seed++ {
			r, _ := injectSeed(job, g, tgt, seed)
			counts[r.Outcome]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != 40 {
			t.Errorf("%s: lost runs: %v", st, counts)
		}
		if st == gpu.RF && counts[faults.Masked] == 40 {
			t.Errorf("RF: 40 injections all masked — injection not effective")
		}
	}
}

func TestInjectDeterminism(t *testing.T) {
	job := saxpyJob(256)
	g, _ := Golden(job, gpu.Volta())
	tgt := Target{Structure: gpu.RF, Kernel: "K1"}
	for seed := int64(0); seed < 10; seed++ {
		a, _ := injectSeed(job, g, tgt, seed)
		b, _ := injectSeed(job, g, tgt, seed)
		if a.Outcome != b.Outcome {
			t.Fatalf("seed %d: %v vs %v", seed, a.Outcome, b.Outcome)
		}
	}
}

func TestClassify(t *testing.T) {
	job := saxpyJob(64)
	g, _ := Golden(job, gpu.Volta())
	cases := []struct {
		res  *sim.Result
		want faults.Outcome
	}{
		{&sim.Result{TimedOut: true}, faults.Timeout},
		{&sim.Result{Err: fmt.Errorf("boom")}, faults.DUE},
		{&sim.Result{DUEFlag: true, Output: g.Res.Output}, faults.DUE},
		{&sim.Result{Output: append([]byte{1}, g.Res.Output[1:]...)}, faults.SDC},
		{&sim.Result{Output: g.Res.Output, Cycles: g.Res.Cycles}, faults.Masked},
	}
	for i, c := range cases {
		got := Classify(g, c.res, true)
		if got.Outcome != c.want {
			t.Errorf("case %d: %v, want %v", i, got.Outcome, c.want)
		}
	}
	// control-path proxy: masked but different cycle count
	r := Classify(g, &sim.Result{Output: g.Res.Output, Cycles: g.Res.Cycles + 5}, true)
	if r.Outcome != faults.Masked || !r.CtrlAffected {
		t.Errorf("cycle deviation must flag CtrlAffected: %+v", r)
	}
}

// TestSDCByteFlipInOutputCache: flip a bit of the L2 line that holds output
// data right before the end of the kernel — the §V-B "written back without
// being read again" scenario must surface as an SDC.
func TestSDCByteFlipInOutputCache(t *testing.T) {
	job := saxpyJob(256)
	cfg := gpu.Volta()
	g, _ := Golden(job, gpu.Volta())
	sdc := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// inject very late, into L2 data
		cycle := g.Res.Cycles - 2
		res := sim.Run(job, cfg, sim.Options{
			MaxCycles: g.Res.Cycles * 10,
			AtCycle:   cycle,
			OnCycle: func(m *sim.Machine) {
				// pick among dirty lines (the output data awaiting writeback)
				var dirty []int
				for i := 0; i < m.L2.NumLines(); i++ {
					if ln := m.L2.LineAt(i); ln.Valid && ln.Dirty {
						dirty = append(dirty, i)
					}
				}
				if len(dirty) == 0 {
					return
				}
				line := dirty[rng.Intn(len(dirty))]
				m.L2.FlipBit(line, uint32(rng.Intn(64)), uint8(rng.Intn(8)))
			},
		})
		if Classify(g, res, true).Outcome == faults.SDC {
			sdc++
		}
	}
	if sdc == 0 {
		t.Error("late L2 flips never corrupted the output — writeback path broken")
	}
}

// TestInjectPrunedEquivalence is the parity table of the single injector
// against brute force: for every structure (all storage arrays and the
// control sites), every fault model, prune off/on, checkpointing
// off/fork/converge and both execution cores, each seed must classify
// exactly as the unpruned brute-force experiment on the µop core — same
// outcome, detail and control-affected flag. A pruned run must have asked
// for the prune and be classified Masked. Prune must both fire and leave
// live sites to simulate on RF and SMEM.
func TestInjectPrunedEquivalence(t *testing.T) {
	job := saxpyJob(256)
	cfg := gpu.Volta()
	brute, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name string
		g    *GoldenRun
	}
	var variants []variant
	for _, legacy := range []bool{false, true} {
		for _, ck := range []string{"off", "fork", "converge"} {
			var g *GoldenRun
			if ck == "off" {
				g, err = Golden(job, cfg)
			} else {
				spec := ckSpecFor(brute, ck == "converge")
				spec.Legacy = legacy
				g, err = GoldenCheckpointed(job, cfg, spec)
			}
			if err != nil {
				t.Fatal(err)
			}
			g.Legacy = legacy
			variants = append(variants, variant{fmt.Sprintf("ckpt=%s legacy=%v", ck, legacy), g})
		}
	}
	groups := []struct {
		structures []gpu.Structure
		models     map[string]faultmodel.Model
	}{
		{gpu.Structures[:], storageModels()},
		{gpu.ControlStructures[:], controlModels()},
	}
	const seeds = 12
	pruned, simulated := map[gpu.Structure]int{}, map[gpu.Structure]int{}
	for _, grp := range groups {
		for _, st := range grp.structures {
			for name, mdl := range grp.models {
				_, transient := mdl.(faultmodel.Transient)
				prunable := transient && (st == gpu.RF || st == gpu.SMEM)
				for seed := int64(0); seed < seeds; seed++ {
					want, _ := injectSeed(job, brute, Target{Structure: st, Kernel: "K1", Model: mdl}, seed)
					for _, v := range variants {
						for _, prune := range []bool{false, true} {
							tgt := Target{Structure: st, Kernel: "K1", Model: mdl, Prune: prune}
							got, wasPruned := injectSeed(job, v.g, tgt, seed)
							if got != want {
								t.Fatalf("%s %s %s prune=%v seed %d: %+v != brute force %+v (pruned=%v)",
									st, name, v.name, prune, seed, got, want, wasPruned)
							}
							switch {
							case wasPruned && (!prune || got.Outcome != faults.Masked):
								t.Fatalf("%s %s %s prune=%v seed %d: illegal prune to %+v",
									st, name, v.name, prune, seed, got)
							case wasPruned:
								pruned[st]++
							case prune && prunable:
								simulated[st]++
							}
						}
					}
				}
			}
		}
	}
	for _, st := range []gpu.Structure{gpu.RF, gpu.SMEM} {
		t.Logf("%s: %d pruned, %d simulated under prune", st, pruned[st], simulated[st])
		if pruned[st] == 0 || simulated[st] == 0 {
			t.Errorf("%s: prune must both fire and leave live sites (pruned %d, simulated %d)",
				st, pruned[st], simulated[st])
		}
	}
}

// TestInjectPrunedNonRF: the prune only covers transient faults in RF and
// SMEM. Caches, control sites and every non-transient model run unpruned
// even when Target.Prune is set, and the ECC screen, which classifies
// without a run, is not a prune either.
func TestInjectPrunedNonRF(t *testing.T) {
	job := saxpyJob(256)
	g, err := Golden(job, gpu.Volta())
	if err != nil {
		t.Fatal(err)
	}
	groups := []struct {
		structures []gpu.Structure
		models     map[string]faultmodel.Model
	}{
		{gpu.Structures[:], storageModels()},
		{gpu.ControlStructures[:], controlModels()},
	}
	for _, grp := range groups {
		for _, st := range grp.structures {
			for name, mdl := range grp.models {
				if _, transient := mdl.(faultmodel.Transient); transient && (st == gpu.RF || st == gpu.SMEM) {
					continue
				}
				for seed := int64(0); seed < 12; seed++ {
					tgt := Target{Structure: st, Kernel: "K1", Model: mdl, Prune: true}
					if r, wasPruned := injectSeed(job, g, tgt, seed); wasPruned {
						t.Fatalf("%s %s seed %d: unprunable target pruned to %+v", st, name, seed, r)
					}
				}
			}
		}
	}

	// The ECC screen classifies without a run but is not a prune.
	gECC, err := Golden(job, gpu.Volta().WithECC(gpu.RF))
	if err != nil {
		t.Fatal(err)
	}
	r, wasPruned := injectSeed(job, gECC, Target{Structure: gpu.RF, Kernel: "K1", Prune: true}, 1)
	if wasPruned || r.Outcome != faults.Masked || r.Detail != "corrected by ECC" {
		t.Errorf("ECC screen must not count as pruning: %+v pruned=%v", r, wasPruned)
	}
}

func TestMultiBitBurst(t *testing.T) {
	job := saxpyJob(256)
	g, _ := Golden(job, gpu.Volta())
	tgt := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: 3}}
	r, _ := injectSeed(job, g, tgt, 5)
	if r.Outcome >= faults.NumOutcomes {
		t.Errorf("burst injection produced bad outcome %v", r.Outcome)
	}
}

// TestECCProtection: SEC-DED on a structure corrects singles and converts
// doubles into DUEs; triples strike through.
func TestECCProtection(t *testing.T) {
	job := saxpyJob(128)
	cfg := gpu.Volta().WithECC(gpu.RF)
	g, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: 1}}
	double := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: 2}}
	triple := Target{Structure: gpu.RF, Kernel: "K1", Model: faultmodel.Transient{Width: 3}}
	for seed := int64(0); seed < 20; seed++ {
		if r, _ := injectSeed(job, g, single, seed); r.Outcome != faults.Masked {
			t.Fatalf("ECC must correct single-bit faults, got %v", r.Outcome)
		}
		if r, _ := injectSeed(job, g, double, seed); r.Outcome != faults.DUE {
			t.Fatalf("ECC must detect double-bit faults as DUE, got %v", r.Outcome)
		}
	}
	// triples bypass SEC-DED: at least one run must escape as non-DUE-non-masked
	// or corrupt state (any outcome is legal, but injection must happen)
	escaped := false
	for seed := int64(0); seed < 30; seed++ {
		r, _ := injectSeed(job, g, triple, seed)
		if r.Outcome == faults.SDC || r.Outcome == faults.Timeout {
			escaped = true
		}
	}
	if !escaped {
		t.Log("no triple-burst corruption observed at this sample size (acceptable)")
	}
	// unprotected structures unaffected by the RF ECC flag
	l2 := Target{Structure: gpu.L2, Kernel: "K1"}
	sawNonMasked := false
	for seed := int64(0); seed < 60; seed++ {
		if r, _ := injectSeed(job, g, l2, seed); r.Outcome != faults.Masked {
			sawNonMasked = true
		}
	}
	if !sawNonMasked {
		t.Log("all L2 injections masked at this sample size")
	}
}
