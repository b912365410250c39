package device

import (
	"bytes"
	"testing"
	"testing/quick"

	"gpurel/internal/isa"
)

func TestAllocAlignmentAndBounds(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("a", 10)
	b := m.Alloc("b", 100)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations must be 256-byte aligned: %#x %#x", a, b)
	}
	if a < NullGuard {
		t.Errorf("allocations must avoid the null guard page: %#x", a)
	}
	if b <= a {
		t.Error("allocator must move forward")
	}
}

func TestAllocOOMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-memory")
		}
	}()
	m := NewMemory(1 << 14)
	m.Alloc("big", 1<<14) // null guard + 16 KiB cannot fit in 16 KiB
}

func TestLoadStoreValidity(t *testing.T) {
	m := NewMemory(1 << 16)
	a := m.Alloc("buf", 64)
	if err := m.Store4(a, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load4(a)
	if err != nil || v != 42 {
		t.Fatalf("roundtrip failed: %v %v", v, err)
	}
	// misaligned
	if _, err := m.Load4(a + 2); err == nil {
		t.Error("misaligned load must fail")
	}
	// out of any allocation
	if _, err := m.Load4(0); err == nil {
		t.Error("null load must fail")
	}
	if err := m.Store4(a+64, 1); err == nil {
		t.Error("store past the end of the buffer must fail")
	}
	// straddling the end
	if _, err := m.Load4(a + 62); err == nil {
		t.Error("load straddling the allocation must fail")
	}
	var ae *AccessError
	if err := m.Store4(0x10, 1); err != nil {
		var ok bool
		ae, ok = err.(*AccessError)
		if !ok || !ae.Write {
			t.Errorf("store error should be a write AccessError, got %v", err)
		}
	}
}

func TestSliceHelpersRoundtrip(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) > 1000 {
			vals = vals[:1000]
		}
		m := NewMemory(1 << 20)
		a := m.Alloc("v", 4*len(vals)+4)
		m.WriteU32s(a, vals)
		got := m.ReadU32s(a, len(vals))
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFloatHelpers(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("f", 16)
	m.WriteF32s(a, []float32{1.5, -2.25})
	got := m.ReadF32s(a, 2)
	if got[0] != 1.5 || got[1] != -2.25 {
		t.Errorf("float roundtrip = %v", got)
	}
	m.WriteI32s(a, []int32{-7, 9})
	ig := m.ReadI32s(a, 2)
	if ig[0] != -7 || ig[1] != 9 {
		t.Errorf("int roundtrip = %v", ig)
	}
}

func TestClone(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("x", 8)
	m.PokeU32(a, 1)
	c := m.Clone()
	c.PokeU32(a, 2)
	if m.PeekU32(a) != 1 {
		t.Error("clone must not share storage")
	}
	if !c.Valid(a, 4) {
		t.Error("clone must keep the allocation table")
	}
}

func TestReplicate(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("x", 8)
	m.PokeU32(a, 0xAB)
	r, stride := m.Replicate(3, 1024)
	if stride%256 != 0 {
		t.Errorf("stride must stay aligned: %d", stride)
	}
	for c := uint32(0); c < 3; c++ {
		if r.PeekU32(a+c*stride) != 0xAB {
			t.Errorf("copy %d missing data", c)
		}
		if !r.Valid(a+c*stride, 4) {
			t.Errorf("copy %d missing allocation", c)
		}
	}
	// extra headroom must be allocatable
	f := r.Alloc("flag", 4)
	if !r.Valid(f, 4) {
		t.Error("post-replication allocation invalid")
	}
	// copies must be independent
	r.PokeU32(a, 1)
	if r.PeekU32(a+stride) != 0xAB {
		t.Error("copies must not alias")
	}
}

func TestJobHelpers(t *testing.T) {
	m := NewMemory(1 << 14)
	a := m.Alloc("out", 8)
	m.PokeU32(a, 7)
	m.PokeU32(a+4, 8)
	prog := &isa.Program{Name: "k", NumRegs: 1, Code: []isa.Instr{{Op: isa.OpEXIT}}}
	j := &Job{
		Mem: m,
		Steps: []Step{
			{Launch: &Launch{Kernel: prog, KernelName: "K1", GridX: 1, GridY: 1, BlockX: 1, BlockY: 1}},
			{Launch: &Launch{Kernel: prog, KernelName: "K2", GridX: 1, GridY: 1, BlockX: 1, BlockY: 1}},
			{Launch: &Launch{Kernel: prog, KernelName: "K1", GridX: 1, GridY: 1, BlockX: 1, BlockY: 1}},
		},
		Outputs: []Output{{Name: "out", Addr: a, Size: 8}},
	}
	names := j.KernelNames()
	if len(names) != 2 || names[0] != "K1" || names[1] != "K2" {
		t.Errorf("KernelNames = %v", names)
	}
	out := j.ReadOutputs(m)
	want := []byte{7, 0, 0, 0, 8, 0, 0, 0}
	if !bytes.Equal(out, want) {
		t.Errorf("ReadOutputs = %v", out)
	}
	if j.MaxScheduleSteps() < len(j.Steps) {
		t.Error("default step budget too small")
	}
}

func TestLaunchReplicaParams(t *testing.T) {
	l := &Launch{Params: []uint32{1, 2}}
	if l.NumReplicas() != 1 {
		t.Error("default replicas = 1")
	}
	if got := l.ParamsFor(0); got[0] != 1 {
		t.Error("ParamsFor(0) must return Params when not replicated")
	}
	l.Replicas = 3
	l.ReplicaParams = [][]uint32{{1}, {2}, {3}}
	if l.NumReplicas() != 3 || l.ParamsFor(2)[0] != 3 {
		t.Error("replica params not resolved")
	}
	l.GridX, l.GridY, l.BlockX, l.BlockY = 2, 2, 8, 4
	if l.ThreadsPerCTA() != 32 || l.NumCTAs() != 12 {
		t.Errorf("geometry: threads=%d ctas=%d", l.ThreadsPerCTA(), l.NumCTAs())
	}
}

// TestSavePagedZeroPage: all-zero full pages alias the shared zero page,
// which costs no retained bytes and restores and compares like a copy.
func TestSavePagedZeroPage(t *testing.T) {
	m := NewMemory(4 * pageBytes)
	a := m.Alloc("a", 2*pageBytes)
	m.PokeU32(a, 7)
	var st PagedState
	m.SavePaged(&st, nil)
	zero := 0
	for _, pg := range st.Pages() {
		if IsZeroPage(pg) {
			zero++
		}
	}
	if zero != 3 {
		t.Fatalf("%d zero pages, want 3 (every page but the written one)", zero)
	}
	if got, want := st.StateBytes(), int64(pageBytes+24); got != want {
		t.Errorf("StateBytes %d, want %d (one copied page plus the alloc)", got, want)
	}
	m.ClearPageDirty()
	m.PokeU32(a+pageBytes, 9)
	if m.PagedEqual(&st, &st) {
		t.Fatal("a write to a zero page must make the memory differ")
	}
	m.LoadPaged(&st, &st)
	if !m.PagedEqual(&st, nil) || m.PeekU32(a+pageBytes) != 0 || m.PeekU32(a) != 7 {
		t.Fatal("restoring a zero page must clear the write")
	}
	if !IsZeroPage(zeroPage[:]) || zeroPage[0] != 0 {
		t.Fatal("the shared zero page was written")
	}
}
