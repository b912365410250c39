// Package device models the GPU device side visible to the host: global
// memory with an allocation table (the basis for illegal-access DUE
// detection), kernel launch descriptors, and multi-kernel jobs with host
// steps in between — the moral equivalent of a CUDA host program.
package device

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"gpurel/internal/isa"
)

// NullGuard is the size of the unmapped region at address zero; accesses
// below it always fault, catching null-pointer dereferences from corrupted
// address registers.
const NullGuard = 0x1000

// Alloc records one device allocation.
type Alloc struct {
	Name string
	Addr uint32
	Size uint32
}

// pageBytes is the copy-on-write snapshot page size. Device memory dwarfs
// every other array in a machine snapshot, so the checkpoint engine tracks
// writes per page and shares untouched pages between consecutive snapshots.
const pageBytes = 4096

// Memory is the device global memory image plus its allocation table.
// Accesses outside an allocation (or misaligned) produce errors that the
// simulators classify as DUEs.
type Memory struct {
	data   []byte
	next   uint32
	allocs []Alloc
	// dirty tracks whether any (potentially) mutating access happened since
	// the last ResetDirty. The timing simulator brackets host steps with it
	// to decide whether GPU caches must be invalidated afterward: read-only
	// host access (D2H) leaves them warm.
	dirty bool
	// lastHit memoizes the alloc index of the last successful Valid check:
	// warp accesses are heavily clustered within one buffer, so this turns
	// the per-lane validity scan into a single range test. Pure cache —
	// never part of snapshotted or compared state.
	lastHit int
	// pdirty is the per-page write bitset backing copy-on-write snapshots:
	// bit p set means page p may have diverged from the provenance snapshot
	// the checkpoint engine last synced against. Every mutating accessor
	// marks the pages it touches; Raw marks all of them (the caller can
	// write anywhere).
	pdirty []uint64
}

// NewMemory creates a device memory of the given capacity in bytes.
func NewMemory(capacity int) *Memory {
	m := &Memory{data: make([]byte, capacity), next: NullGuard}
	m.pdirty = make([]uint64, (m.numPages()+63)/64)
	m.markAllPages()
	return m
}

func (m *Memory) numPages() int { return (len(m.data) + pageBytes - 1) / pageBytes }

func (m *Memory) pageDirty(p int) bool { return m.pdirty[p>>6]&(1<<(p&63)) != 0 }

func (m *Memory) markAllPages() {
	for i := range m.pdirty {
		m.pdirty[i] = ^uint64(0)
	}
}

// markPages marks the write-tracking state for [addr, addr+n): the host
// dirty flag and the snapshot page bits.
func (m *Memory) markPages(addr, n uint32) {
	m.dirty = true
	if n == 0 || int(addr) >= len(m.data) {
		return
	}
	lo := int(addr) / pageBytes
	hi := int(addr+n-1) / pageBytes
	if last := m.numPages() - 1; hi > last {
		hi = last
	}
	for p := lo; p <= hi; p++ {
		m.pdirty[p>>6] |= 1 << (p & 63)
	}
}

// ClearPageDirty clears the per-page snapshot bits (not the host dirty
// flag). Only the checkpoint engine calls it, at provenance sync points.
func (m *Memory) ClearPageDirty() {
	clear(m.pdirty)
}

// Alloc reserves size bytes (zeroed) and returns the device address.
// Allocations are 256-byte aligned like cudaMalloc.
func (m *Memory) Alloc(name string, size int) uint32 {
	const align = 256
	addr := (m.next + align - 1) &^ uint32(align-1)
	if int(addr)+size > len(m.data) {
		panic(fmt.Sprintf("device: out of memory allocating %q (%d bytes)", name, size))
	}
	m.allocs = append(m.allocs, Alloc{Name: name, Addr: addr, Size: uint32(size)})
	m.next = addr + uint32(size)
	return addr
}

// Allocs returns the allocation table.
func (m *Memory) Allocs() []Alloc { return m.allocs }

// Size returns the capacity of the memory in bytes.
func (m *Memory) Size() int { return len(m.data) }

// Used returns the high-water mark of allocated memory.
func (m *Memory) Used() uint32 { return m.next }

// Clone returns a deep copy, used to reset state between injection runs.
func (m *Memory) Clone() *Memory {
	c := &Memory{data: make([]byte, len(m.data)), next: m.next}
	copy(c.data, m.data)
	c.allocs = append([]Alloc(nil), m.allocs...)
	c.pdirty = make([]uint64, (c.numPages()+63)/64)
	c.markAllPages()
	return c
}

// CloneInto deep-copies m into dst, reusing dst's backing array when the
// capacities match (the run pool recycles memories this way to avoid a
// large allocation per injection run). Returns dst, or a fresh Clone when
// the capacities differ.
func (m *Memory) CloneInto(dst *Memory) *Memory {
	if dst == nil || len(dst.data) != len(m.data) {
		return m.Clone()
	}
	copy(dst.data, m.data)
	dst.next = m.next
	dst.allocs = append(dst.allocs[:0], m.allocs...)
	dst.markAllPages()
	return dst
}

// MemState is a deep copy of a Memory's mutable state, used by the
// checkpoint engine in internal/sim.
type MemState struct {
	data   []byte
	next   uint32
	allocs []Alloc
}

// SaveState deep-copies the memory's state into st, reusing st's buffers.
func (m *Memory) SaveState(st *MemState) {
	if len(st.data) != len(m.data) {
		st.data = make([]byte, len(m.data))
	}
	copy(st.data, m.data)
	st.next = m.next
	st.allocs = append(st.allocs[:0], m.allocs...)
}

// LoadState restores state saved from a memory of the same capacity.
func (m *Memory) LoadState(st *MemState) {
	if len(st.data) != len(m.data) {
		panic(fmt.Sprintf("device: LoadState capacity mismatch: %d bytes, snapshot has %d", len(m.data), len(st.data)))
	}
	copy(m.data, st.data)
	m.next = st.next
	m.allocs = append(m.allocs[:0], st.allocs...)
	m.markAllPages()
}

// PagedState is a structurally shared snapshot of a Memory: pages untouched
// since the previous snapshot alias the previous snapshot's page slices
// instead of being copied. Immutable once saved.
type PagedState struct {
	pages  [][]byte
	next   uint32
	allocs []Alloc
}

// Pages exposes the page slices for retained-byte accounting (a shared page
// appears in multiple PagedStates with the same backing array). Callers
// must treat the pages as read-only.
func (st *PagedState) Pages() [][]byte { return st.pages }

// StateBytes returns the standalone (sharing-ignored) size of the state. The
// shared zero page is retained by the package, not the state, and counts 0.
func (st *PagedState) StateBytes() int64 {
	var n int64
	for _, pg := range st.pages {
		if !IsZeroPage(pg) {
			n += int64(len(pg))
		}
	}
	return n + int64(len(st.allocs))*24
}

func samePage(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// zeroPage backs every all-zero full page of every PagedState. Snapshots are
// immutable, so nothing ever writes it.
var zeroPage [pageBytes]byte

// IsZeroPage reports whether pg is the shared zero page, which retained-byte
// accounting counts as 0 bytes.
func IsZeroPage(pg []byte) bool { return samePage(pg, zeroPage[:]) }

// SavePaged snapshots the memory into st. Pages whose dirty bit is clear are
// shared with prev — the caller guarantees prev is the provenance base the
// dirty bits are relative to (every clean page is bit-identical to prev's).
// prev nil forces a full copy. Copied full pages that are all zero alias the
// shared zero page instead. Dirty bits are left untouched; the caller clears
// them when it re-bases its provenance on the new snapshot.
func (m *Memory) SavePaged(st, prev *PagedState) {
	np := m.numPages()
	st.pages = make([][]byte, np)
	for p := 0; p < np; p++ {
		if prev != nil && !m.pageDirty(p) {
			st.pages[p] = prev.pages[p]
			continue
		}
		lo := p * pageBytes
		hi := min(lo+pageBytes, len(m.data))
		if src := m.data[lo:hi]; bytes.Equal(src, zeroPage[:]) {
			st.pages[p] = zeroPage[:]
		} else {
			st.pages[p] = append([]byte(nil), src...)
		}
	}
	st.next = m.next
	st.allocs = append([]Alloc(nil), m.allocs...)
}

// LoadPaged restores st into the memory. base is the provenance snapshot the
// memory's dirty bits are relative to: a page that is clean and shares its
// backing array between st and base is already bit-identical and is skipped.
// base nil forces a full copy. The caller re-bases provenance afterwards.
func (m *Memory) LoadPaged(st, base *PagedState) {
	np := m.numPages()
	if len(st.pages) != np {
		panic(fmt.Sprintf("device: LoadPaged page-count mismatch: %d pages, snapshot has %d", np, len(st.pages)))
	}
	for p := 0; p < np; p++ {
		if base != nil && !m.pageDirty(p) && samePage(st.pages[p], base.pages[p]) {
			continue
		}
		copy(m.data[p*pageBytes:], st.pages[p])
	}
	m.next = st.next
	m.allocs = append(m.allocs[:0], st.allocs...)
}

// PagedEqual reports whether the memory's current state equals st, using the
// same clean-and-shared fast path as LoadPaged.
func (m *Memory) PagedEqual(st, base *PagedState) bool {
	if m.next != st.next || len(m.allocs) != len(st.allocs) || len(st.pages) != m.numPages() {
		return false
	}
	for i := range m.allocs {
		if m.allocs[i] != st.allocs[i] {
			return false
		}
	}
	for p := range st.pages {
		if base != nil && !m.pageDirty(p) && samePage(st.pages[p], base.pages[p]) {
			continue
		}
		lo := p * pageBytes
		if !bytes.Equal(m.data[lo:lo+len(st.pages[p])], st.pages[p]) {
			return false
		}
	}
	return true
}

// StateEqual reports whether the memory's current state is identical to st.
func (m *Memory) StateEqual(st *MemState) bool {
	if len(m.data) != len(st.data) || m.next != st.next || len(m.allocs) != len(st.allocs) {
		return false
	}
	for i := range m.allocs {
		if m.allocs[i] != st.allocs[i] {
			return false
		}
	}
	return bytes.Equal(m.data, st.data)
}

// StateBytes returns the retained size of a saved state.
func (st *MemState) StateBytes() int64 {
	return int64(len(st.data)) + int64(len(st.allocs))*24
}

// Replicate builds a new memory holding `copies` replicas of this memory's
// allocated image at a fixed stride, plus extra bytes of headroom for
// additional allocations. It returns the new memory and the replica stride:
// an address a of copy 0 maps to a + c*stride in copy c. The allocation
// table is replicated so validity checks accept every copy.
func (m *Memory) Replicate(copies, extra int) (*Memory, uint32) {
	const align = 256
	stride := (m.next + align - 1) &^ uint32(align-1)
	capacity := int(stride)*copies + extra
	n := &Memory{data: make([]byte, capacity), next: stride*uint32(copies-1) + m.next}
	n.pdirty = make([]uint64, (n.numPages()+63)/64)
	n.markAllPages()
	for c := 0; c < copies; c++ {
		off := uint32(c) * stride
		copy(n.data[off:], m.data[:m.next])
		for _, a := range m.allocs {
			n.allocs = append(n.allocs, Alloc{
				Name: fmt.Sprintf("%s#%d", a.Name, c),
				Addr: a.Addr + off,
				Size: a.Size,
			})
		}
	}
	return n, stride
}

// AccessError describes an illegal device memory access.
type AccessError struct {
	Addr  uint32
	Write bool
}

func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("illegal global memory %s at 0x%x", kind, e.Addr)
}

// Valid reports whether [addr, addr+n) lies inside some allocation and is
// n-aligned.
func (m *Memory) Valid(addr uint32, n uint32) bool {
	if addr%n != 0 {
		return false
	}
	if i := m.lastHit; i < len(m.allocs) {
		if a := &m.allocs[i]; addr >= a.Addr && addr+n <= a.Addr+a.Size {
			return true
		}
	}
	for i := range m.allocs {
		if a := &m.allocs[i]; addr >= a.Addr && addr+n <= a.Addr+a.Size {
			m.lastHit = i
			return true
		}
	}
	return false
}

// ValidUncached is Valid without the last-hit memo: a plain scan over the
// allocation table. The simulator's reference (legacy) core uses it so its
// per-access cost matches the pre-memoization baseline.
func (m *Memory) ValidUncached(addr uint32, n uint32) bool {
	if addr%n != 0 {
		return false
	}
	for i := range m.allocs {
		if a := &m.allocs[i]; addr >= a.Addr && addr+n <= a.Addr+a.Size {
			return true
		}
	}
	return false
}

// Load4 reads a 4-byte word, checking validity.
func (m *Memory) Load4(addr uint32) (uint32, error) {
	if !m.Valid(addr, 4) {
		return 0, &AccessError{Addr: addr}
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), nil
}

// Store4 writes a 4-byte word, checking validity.
func (m *Memory) Store4(addr uint32, v uint32) error {
	if !m.Valid(addr, 4) {
		return &AccessError{Addr: addr, Write: true}
	}
	m.markPages(addr, 4)
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	return nil
}

// Raw exposes the backing bytes for direct host-step access. Callers must
// stay in bounds. The returned slice is mutable, so taking it counts as a
// write to every page for dirty tracking; code on the simulator's hot path
// (cache fills and writebacks) uses PeekBytes/WriteAt instead, which track
// precisely.
func (m *Memory) Raw() []byte {
	m.dirty = true
	m.markAllPages()
	return m.data
}

// PeekBytes returns a read-only view of [addr, addr+n) without touching the
// write-tracking state. Mutating the returned slice corrupts snapshot
// provenance; writers must use WriteAt or Raw.
func (m *Memory) PeekBytes(addr, n uint32) []byte {
	return m.data[addr : addr+n]
}

// WriteAt copies b into the memory at addr with precise write tracking (the
// cache model's line-writeback path).
func (m *Memory) WriteAt(addr uint32, b []byte) {
	m.markPages(addr, uint32(len(b)))
	copy(m.data[addr:], b)
}

// ResetDirty clears the write-tracking flag; Dirty reports whether any
// possibly-mutating access happened since.
func (m *Memory) ResetDirty() { m.dirty = false }

// Dirty reports whether the memory may have been written since ResetDirty.
func (m *Memory) Dirty() bool { return m.dirty }

// PeekU32 reads a word without validity checking (host-side access).
func (m *Memory) PeekU32(addr uint32) uint32 {
	return binary.LittleEndian.Uint32(m.data[addr:])
}

// PokeU32 writes a word without validity checking (host-side access).
func (m *Memory) PokeU32(addr uint32, v uint32) {
	m.markPages(addr, 4)
	binary.LittleEndian.PutUint32(m.data[addr:], v)
}

// PeekF32 reads a float32 (host-side).
func (m *Memory) PeekF32(addr uint32) float32 {
	return math.Float32frombits(m.PeekU32(addr))
}

// PokeF32 writes a float32 (host-side).
func (m *Memory) PokeF32(addr uint32, v float32) {
	m.PokeU32(addr, math.Float32bits(v))
}

// WriteU32s copies a word slice to device memory at addr.
func (m *Memory) WriteU32s(addr uint32, vals []uint32) {
	for i, v := range vals {
		m.PokeU32(addr+uint32(4*i), v)
	}
}

// ReadU32s copies n words from device memory at addr.
func (m *Memory) ReadU32s(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.PeekU32(addr + uint32(4*i))
	}
	return out
}

// WriteF32s copies a float slice to device memory at addr.
func (m *Memory) WriteF32s(addr uint32, vals []float32) {
	for i, v := range vals {
		m.PokeF32(addr+uint32(4*i), v)
	}
}

// ReadF32s copies n floats from device memory at addr.
func (m *Memory) ReadF32s(addr uint32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = m.PeekF32(addr + uint32(4*i))
	}
	return out
}

// WriteI32s copies an int slice to device memory at addr.
func (m *Memory) WriteI32s(addr uint32, vals []int32) {
	for i, v := range vals {
		m.PokeU32(addr+uint32(4*i), uint32(v))
	}
}

// ReadI32s copies n ints from device memory at addr.
func (m *Memory) ReadI32s(addr uint32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(m.PeekU32(addr + uint32(4*i)))
	}
	return out
}

// Launch describes one kernel launch. When Replicas > 1 (TMR hardening) the
// grid is replicated and each replica r executes with Params resolved through
// ReplicaParams[r]; replica 0 uses Params itself when ReplicaParams is nil.
type Launch struct {
	Kernel     *isa.Program
	KernelName string // defaults to Kernel.Name
	GridX      int
	GridY      int
	BlockX     int
	BlockY     int
	SmemBytes  int

	Params []uint32
	// ParamIsPtr marks parameter words that are device pointers; the TMR
	// transform rebases these per replica.
	ParamIsPtr []bool

	Replicas      int        // 0 or 1 = no replication
	ReplicaParams [][]uint32 // length Replicas when replicated
}

// Name returns the kernel name used for per-kernel campaigns.
func (l *Launch) Name() string {
	if l.KernelName != "" {
		return l.KernelName
	}
	return l.Kernel.Name
}

// NumReplicas normalises Replicas.
func (l *Launch) NumReplicas() int {
	if l.Replicas <= 1 {
		return 1
	}
	return l.Replicas
}

// ParamsFor returns the parameter bank for replica r.
func (l *Launch) ParamsFor(r int) []uint32 {
	if l.ReplicaParams != nil {
		return l.ReplicaParams[r]
	}
	return l.Params
}

// ThreadsPerCTA returns the CTA size in threads.
func (l *Launch) ThreadsPerCTA() int { return l.BlockX * l.BlockY }

// NumCTAs returns the total CTA count including replicas.
func (l *Launch) NumCTAs() int { return l.GridX * l.GridY * l.NumReplicas() }

// Step is one element of a job schedule: either a kernel launch or a host
// step. Host steps model CPU-side code between kernels (reductions of
// partial sums, convergence checks); they are never fault-injected. A host
// step receives the device-buffer offset of the data copy it operates on
// (always 0 for unhardened jobs; the TMR transform invokes it once per
// replica with that replica's offset) and returns the index of the next
// step to run, or -1 to continue with the following step — this supports
// data-dependent kernel loops like BFS.
type Step struct {
	Launch *Launch
	Host   func(m *Memory, off uint32) int
}

// Output names a device buffer whose final contents define program output
// for SDC classification.
type Output struct {
	Name string
	Addr uint32
	Size uint32 // bytes
}

// Job is a complete application run: pristine memory image, schedule, and
// output buffers.
type Job struct {
	Name    string
	Mem     *Memory
	Steps   []Step
	Outputs []Output
	// MaxSteps bounds schedule execution (host-step loops under faults may
	// never converge); exceeding it classifies the run as a Timeout. Zero
	// means 4× the schedule length.
	MaxSteps int
	// DUEFlag, when nonzero, is the address of a word that the application
	// sets to signal a detected unrecoverable error (the TMR voter writes it
	// on three-way disagreement). A nonzero value at job end classifies the
	// run as a DUE.
	DUEFlag uint32
}

// MaxScheduleSteps returns the effective schedule-step budget.
func (j *Job) MaxScheduleSteps() int {
	if j.MaxSteps > 0 {
		return j.MaxSteps
	}
	n := 4 * len(j.Steps)
	if n < 16 {
		n = 16
	}
	return n
}

// KernelNames returns the distinct kernel names in schedule order.
func (j *Job) KernelNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range j.Steps {
		if s.Launch == nil {
			continue
		}
		n := s.Launch.Name()
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	return names
}

// ReadOutputs concatenates the bytes of all output buffers from m, in
// declaration order. Two runs produced the same output iff these byte slices
// are equal.
func (j *Job) ReadOutputs(m *Memory) []byte {
	var total int
	for _, o := range j.Outputs {
		total += int(o.Size)
	}
	out := make([]byte, 0, total)
	for _, o := range j.Outputs {
		out = append(out, m.PeekBytes(o.Addr, o.Size)...)
	}
	return out
}
