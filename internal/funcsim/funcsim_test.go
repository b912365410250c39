package funcsim

import (
	"bytes"
	"slices"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/isa"
	"gpurel/internal/kasm"
)

// square builds out[i] = in[i]*in[i].
func square(n int) *isa.Program {
	b := kasm.New("square")
	i := b.IMad(b.S2R(isa.SRCtaIDX), b.S2R(isa.SRNTidX), b.S2R(isa.SRTidX))
	p := b.P()
	b.ISetpI(p, isa.CmpLT, i, int32(n))
	b.If(p, false, func() {
		v := b.Ldg(b.IScAdd(i, b.Param(0), 2), 0)
		b.Stg(b.IScAdd(i, b.Param(1), 2), 0, b.IMul(v, v))
	})
	b.FreeP(p)
	return b.MustBuild()
}

func squareJob(n int) *device.Job {
	m := device.NewMemory(1 << 18)
	in := m.Alloc("in", 4*n)
	out := m.Alloc("out", 4*n)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	m.WriteU32s(in, vals)
	return &device.Job{
		Name: "sq", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: square(n), KernelName: "K1",
			GridX: 2, GridY: 1, BlockX: n / 2, BlockY: 1,
			Params: []uint32{in, out}, ParamIsPtr: []bool{true, true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: uint32(4 * n)}},
	}
}

func TestFunctionalRun(t *testing.T) {
	job := squareJob(128)
	r := Run(job, Options{CollectWindows: true})
	if r.Err != nil || r.TimedOut {
		t.Fatalf("run failed: %v", r.Err)
	}
	for i := 0; i < 128; i++ {
		got := uint32(r.Output[4*i]) | uint32(r.Output[4*i+1])<<8 |
			uint32(r.Output[4*i+2])<<16 | uint32(r.Output[4*i+3])<<24
		if got != uint32(i*i) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
	kc := r.PerKernel["K1"]
	if kc == nil || kc.DynInstrs == 0 {
		t.Fatal("missing kernel counts")
	}
	if len(kc.DstWindows) != 1 || kc.DstWindows[0].Len() != r.DstCands {
		t.Errorf("dst window %+v must cover all %d candidates", kc.DstWindows, r.DstCands)
	}
	if r.LoadCands == 0 || r.LoadCands >= r.DstCands {
		t.Errorf("load candidates (%d) must be a proper subset of writes (%d)", r.LoadCands, r.DstCands)
	}
	if r.UseCands == 0 {
		t.Error("use candidates must be counted when collecting windows")
	}
}

func TestInjectionDeterminism(t *testing.T) {
	job := squareJob(128)
	inj := &Injection{Mode: InjectDst, Index: 100, Bit: 7}
	a := Run(job, Options{Inject: inj})
	b := Run(job, Options{Inject: inj})
	if !bytes.Equal(a.Output, b.Output) {
		t.Error("identical injections must produce identical outputs")
	}
}

func TestInjectionCorrupts(t *testing.T) {
	job := squareJob(128)
	golden := Run(job, Options{CollectWindows: true})
	// sample injection sites across the whole dynamic-write space; flipping
	// bit 30 must corrupt the output (or crash) for some of them
	diff := false
	for k := int64(0); k < 40 && !diff; k++ {
		idx := (k * 97) % golden.DstCands
		r := Run(job, Options{Inject: &Injection{Mode: InjectDst, Index: idx, Bit: 30}})
		if r.Err != nil || !bytes.Equal(r.Output, golden.Output) {
			diff = true
		}
	}
	if !diff {
		t.Error("no injection corrupted the output")
	}
}

func TestInjectLoadOnlyTargetsLoads(t *testing.T) {
	job := squareJob(64)
	g := Run(job, Options{CollectWindows: true})
	// Inject into load candidates. Bit 31 would be arithmetically masked by
	// the squaring (2·v·2^31 ≡ 0 mod 2^32), so flip bit 16.
	hit := 0
	for idx := int64(0); idx < g.LoadCands; idx += 3 {
		r := Run(job, Options{Inject: &Injection{Mode: InjectDstLoad, Index: idx, Bit: 16}})
		if r.Err != nil || !bytes.Equal(r.Output, g.Output) {
			hit++
		}
	}
	if hit == 0 {
		t.Error("load-only injections never propagated")
	}
}

func TestInjectUseDoesNotPersist(t *testing.T) {
	// A use-mode injection corrupts a single read; the stored register keeps
	// its value. Build a kernel that reads the same register twice and
	// stores both reads: only one store may be corrupted.
	b := kasm.New("twice")
	v := b.MovI(5)
	b.Stg(b.Param(0), 0, v)
	b.Stg(b.Param(0), 4, v)
	prog := b.MustBuild()
	m := device.NewMemory(1 << 14)
	out := m.Alloc("out", 8)
	job := &device.Job{
		Name: "u", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 1, GridY: 1, BlockX: 1, BlockY: 1,
			Params: []uint32{out}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 8}},
	}
	g := Run(job, Options{CollectWindows: true})
	corrupted := 0
	for idx := int64(0); idx < g.UseCands; idx++ {
		r := Run(job, Options{Inject: &Injection{Mode: InjectUse, Index: idx, Bit: 1}})
		if r.Err != nil {
			continue
		}
		a := r.Output[0] != g.Output[0]
		bC := r.Output[4] != g.Output[4]
		if a && bC {
			t.Fatalf("use-mode injection at %d persisted across two reads", idx)
		}
		if a || bC {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Error("no use injection had any effect")
	}
}

func TestHostStepJump(t *testing.T) {
	m := device.NewMemory(1 << 14)
	cnt := m.Alloc("cnt", 4)
	prog := func() *isa.Program {
		b := kasm.New("inc")
		p := b.P()
		b.ISetpI(p, isa.CmpEQ, b.S2R(isa.SRTidX), 0)
		b.If(p, false, func() {
			a := b.Param(0)
			b.Stg(a, 0, b.IAddI(b.Ldg(a, 0), 1))
		})
		b.FreeP(p)
		return b.MustBuild()
	}()
	job := &device.Job{
		Name: "loop", Mem: m,
		Steps: []device.Step{
			{Launch: &device.Launch{Kernel: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1,
				Params: []uint32{cnt}, ParamIsPtr: []bool{true}}},
			{Host: func(mm *device.Memory, off uint32) int {
				if mm.PeekU32(cnt+off) < 5 {
					return 0
				}
				return -1
			}},
		},
		Outputs: []device.Output{{Name: "cnt", Addr: cnt, Size: 4}},
	}
	r := Run(job, Options{})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Output[0] != 5 {
		t.Errorf("host loop ran kernel %d times, want 5", r.Output[0])
	}
}

func TestScheduleBudgetTimeout(t *testing.T) {
	m := device.NewMemory(1 << 14)
	job := &device.Job{
		Name: "spin", Mem: m,
		Steps: []device.Step{
			{Host: func(mm *device.Memory, off uint32) int { return 0 }}, // infinite loop
		},
	}
	r := Run(job, Options{})
	if !r.TimedOut {
		t.Error("runaway host loop must time out via the schedule budget")
	}
}

func TestDynInstrBudget(t *testing.T) {
	job := squareJob(128)
	r := Run(job, Options{MaxDynInstrs: 10})
	if !r.TimedOut {
		t.Error("tiny instruction budget must time out")
	}
}

// captureGolden runs job fault-free, recording a checkpoint at every CTA start.
func captureGolden(t *testing.T, job *device.Job) (*Result, *Checkpoints) {
	t.Helper()
	ck := &Checkpoints{}
	g := Run(job, Options{CollectWindows: true, Capture: ck})
	if g.Err != nil || g.TimedOut {
		t.Fatalf("golden run failed: %v", g.Err)
	}
	return g, ck
}

// TestForkJoinTimeoutProjection: a forked run whose memory matches golden's
// at a later CTA start joins only if the projected total (its count there
// plus the golden tail) fits the budget. If only the projection exceeds the
// budget, the run is a Timeout with the instruction count a run from scratch
// reports.
func TestForkJoinTimeoutProjection(t *testing.T) {
	job := squareJob(128)
	g, ck := captureGolden(t, job)
	if len(ck.points) != 2 {
		t.Fatalf("%d checkpoints, want one per CTA (2)", len(ck.points))
	}
	// Bit 31 of a loaded value is masked by the squaring, so the run's
	// memory equals golden's again at the start of CTA 1.
	inj := Injection{Mode: InjectDstLoad, Index: 0, Bit: 31}
	if at := ck.points[1].DynInstrs; at > g.DynInstrs-1 {
		t.Fatalf("join point at %d instrs is already over the budget; the projection is untested", at)
	}
	for _, budget := range []int64{0, g.DynInstrs, g.DynInstrs - 1} {
		got := Run(job, Options{MaxDynInstrs: budget, Inject: &inj, Fork: ck})
		want := Run(job, Options{MaxDynInstrs: budget, Inject: &inj})
		if got.TimedOut != want.TimedOut || got.DynInstrs != want.DynInstrs || !bytes.Equal(got.Output, want.Output) {
			t.Errorf("budget %d: forked (timeout %v, %d instrs), scratch (timeout %v, %d instrs)",
				budget, got.TimedOut, got.DynInstrs, want.TimedOut, want.DynInstrs)
		}
		overBudget := budget > 0 && budget < g.DynInstrs
		if got.TimedOut != overBudget || got.Joined == overBudget {
			t.Errorf("budget %d: timeout %v joined %v, want timeout %v", budget, got.TimedOut, got.Joined, overBudget)
		}
	}
}

// TestForkNoJoinBeforeFlip: memory equals golden's at every CTA start
// before the flip, the resume point included, so a join attempted there
// would wrongly return the golden output. The forked run must reproduce the
// corrupted run.
func TestForkNoJoinBeforeFlip(t *testing.T) {
	job := squareJob(128)
	g, ck := captureGolden(t, job)
	inj := Injection{Mode: InjectDstLoad, Index: ck.points[1].LoadCands, Bit: 16}
	if pt := ck.resumePoint(inj); pt != ck.points[1] {
		t.Fatalf("resume point %+v, want the start of CTA 1, which holds the flip", pt.Key)
	}
	got := Run(job, Options{Inject: &inj, Fork: ck})
	want := Run(job, Options{Inject: &inj})
	if got.Joined || bytes.Equal(got.Output, g.Output) {
		t.Fatal("forked run joined the golden run before its flip fired")
	}
	if !bytes.Equal(got.Output, want.Output) || got.DynInstrs != want.DynInstrs {
		t.Errorf("forked run differs from scratch: %d vs %d instrs", got.DynInstrs, want.DynInstrs)
	}
}

// TestCTABuffersCleared: per-CTA registers and shared memory are reused
// across CTAs and must start zeroed in each, as fresh ones would.
func TestCTABuffersCleared(t *testing.T) {
	// out[i] = r + smem[tid], then r = 99 and smem[tid] = r. The register
	// write is moved after the store by hand, past the builder's
	// uninitialized-read lint.
	b := kasm.New("stale")
	tid := b.S2R(isa.SRTidX)
	i := b.IMad(b.S2R(isa.SRCtaIDX), b.S2R(isa.SRNTidX), tid)
	sa := b.IMulI(tid, 4)
	r := b.MovI(99)
	b.Stg(b.IScAdd(i, b.Param(0), 2), 0, b.IAdd(r, b.Lds(sa, 0)))
	b.Sts(sa, 0, r)
	prog := b.MustBuild()
	code := prog.Code
	mov := slices.IndexFunc(code, func(in isa.Instr) bool { return in.Op == isa.OpMOVI && in.Dst == r })
	stg := slices.IndexFunc(code, func(in isa.Instr) bool { return in.Op == isa.OpSTG })
	movI := code[mov]
	copy(code[mov:stg], code[mov+1:stg+1])
	code[stg] = movI

	m := device.NewMemory(1 << 14)
	out := m.Alloc("out", 4*64)
	job := &device.Job{
		Name: "stale", Mem: m,
		Steps: []device.Step{{Launch: &device.Launch{
			Kernel: prog, GridX: 2, GridY: 1, BlockX: 32, BlockY: 1, SmemBytes: 4 * 32,
			Params: []uint32{out}, ParamIsPtr: []bool{true},
		}}},
		Outputs: []device.Output{{Name: "out", Addr: out, Size: 4 * 64}},
	}
	res := Run(job, Options{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for k, v := range res.Output {
		if v != 0 {
			t.Fatalf("output byte %d = %d: a CTA saw its predecessor's state", k, v)
		}
	}
}
