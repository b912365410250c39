// Checkpointed fork-and-join support: deep snapshots of complete machine
// state taken during a reference (golden) run, used by injectors to (a)
// resume faulty runs from the nearest checkpoint below the injection cycle
// instead of replaying the fault-free prefix, and (b) detect that a faulty
// run's state has become bit-identical to the reference at a later
// checkpoint, at which point its remaining trajectory — and therefore its
// outcome — equals the reference suffix and need not be simulated.
//
// The equivalence argument rests on the simulator being a deterministic
// function of its state: two runners with identical (cycle, schedule
// position, launch progress, SM arrays, allocator free lists, warp stacks,
// caches, device memory, DRAM counters, accumulated stats) execute identical
// continuations. Snapshots capture exactly that closure, nothing less.
//
// Storage arrays (register files, shared memories, device memory) are
// snapshotted as fixed-size pages with copy-on-write sharing: the runner
// tracks which pages may have diverged from the provenance snapshot it last
// synced against (runner.baseSnap), and a capture copies only those, sharing
// the rest with the base by aliasing its page slices. Consecutive
// checkpoints of a long run therefore cost proportional to the write
// working-set between them, not the machine size, which multiplies how many
// checkpoints fit in a -snap-mb budget. Restores and convergence checks use
// the same provenance to skip pages that are provably already identical.
package sim

import (
	"slices"
	"sync"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/gpu"
	"gpurel/internal/isa"
	"gpurel/internal/mem"
	"gpurel/internal/uop"
)

// Snapshot is a deep (but structurally shared) copy of complete machine
// state at the end of one cycle. Immutable once captured; safe for
// concurrent read-only use by many resumed/probed runs.
type Snapshot struct {
	cycle int64
	si    int
	steps int

	schedNext int

	dramRead, dramWrite int64

	dmem device.PagedState
	l2   mem.CacheState
	sms  []smSnap

	launch launchSnap
	spans  []LaunchSpan
	knames []string
	kstats []KernelStats

	// fixed is the retained size of everything except shareable storage
	// pages; bytes is the standalone footprint (fixed plus all pages,
	// sharing ignored). SnapshotSet accounts retained bytes across a whole
	// set by counting each distinct page once.
	fixed int64
	bytes int64
}

// Cycle returns the cycle the snapshot was taken at.
func (s *Snapshot) Cycle() int64 { return s.cycle }

// Bytes returns the standalone (sharing-ignored) size of the snapshot.
func (s *Snapshot) Bytes() int64 { return s.bytes }

type smSnap struct {
	// rfPages and smPages page the register file (rfPageWords words each)
	// and shared memory (smPageBytes bytes each); pages untouched since the
	// provenance base alias the base's slices instead of being copied.
	rfPages        [][]uint32
	smPages        [][]byte
	rfFree, smFree []block
	l1d, l1t       mem.CacheState
	threadsUsed    int
	issuePtr       int
	ctas           []ctaSnap
}

type ctaSnap struct {
	launch *device.Launch
	prog   *isa.Program
	params []uint32 // read-only during a run: shared, not copied
	cx, cy int

	warps []warpSnap
	meta  []warpMeta
	preds []uint8
	live  int

	rfBase, rfSize int
	smBase, smSize int
	threads        int
	schedID        int
}

type warpSnap struct {
	fullMask, exited uint32
	stack            []exec.Ent
}

type launchSnap struct {
	l         *device.Launch
	pending   []pendingCTA
	resident  int
	nextSM    int
	span      LaunchSpan
	statsBase statsSnapshot
}

// savePages snapshots data as pages of pageSize elements. A page whose dirty
// bit is clear is shared with the corresponding base page (the caller
// guarantees base is the provenance the bits are relative to); base nil
// forces a full copy.
func savePages[T uint32 | byte](data []T, dirty []uint64, base [][]T, pageSize int) [][]T {
	np := pageCount(len(data), pageSize)
	pages := make([][]T, np)
	for p := 0; p < np; p++ {
		if base != nil && !dirtyBit(dirty, p) {
			pages[p] = base[p]
			continue
		}
		lo := p * pageSize
		hi := min(lo+pageSize, len(data))
		pages[p] = append([]T(nil), data[lo:hi]...)
	}
	return pages
}

// sharedPage reports whether two page slices alias the same backing array.
func sharedPage[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// loadPages restores pages into data. A page that is clean (live content
// equals the base page) and shared between pages and base (snapshot content
// equals the base page) is already in place and skipped; base nil forces a
// full copy.
func loadPages[T uint32 | byte](data []T, pages [][]T, dirty []uint64, base [][]T, pageSize int) {
	for p, pg := range pages {
		if base != nil && !dirtyBit(dirty, p) && sharedPage(pg, base[p]) {
			continue
		}
		copy(data[p*pageSize:], pg)
	}
}

// pagesEqual returns -1 when data equals the snapshotted pages (with the
// same clean-and-shared fast path as loadPages), or the index of the first
// differing page.
func pagesEqual[T uint32 | byte](data []T, pages [][]T, dirty []uint64, base [][]T, pageSize int) int {
	for p, pg := range pages {
		if base != nil && !dirtyBit(dirty, p) && sharedPage(pg, base[p]) {
			continue
		}
		lo := p * pageSize
		if !slices.Equal(data[lo:lo+len(pg)], pg) {
			return p
		}
	}
	return -1
}

// capture deep-copies the runner's state, sharing storage pages with the
// current provenance base where the dirty bits prove them unchanged, then
// re-bases the runner's provenance on the new snapshot. Only called from
// inside the runLaunch cycle loop, so r.cur is always non-nil: every
// checkpoint lies within some kernel launch (the cycle counter only
// advances there).
func (r *runner) capture() *Snapshot {
	base := r.baseSnap
	s := &Snapshot{
		cycle:     r.cycle,
		si:        r.si,
		steps:     r.steps,
		schedNext: r.schedNext,
		dramRead:  r.dramRead,
		dramWrite: r.dramWrite,
	}
	var dmemBase *device.PagedState
	if base != nil {
		dmemBase = &base.dmem
	}
	r.mem.SavePaged(&s.dmem, dmemBase)
	r.l2.SaveState(&s.l2)
	s.sms = make([]smSnap, len(r.sms))
	for i, sm := range r.sms {
		var bs *smSnap
		if base != nil {
			bs = &base.sms[i]
		}
		captureSM(sm, &s.sms[i], bs)
	}
	cur := r.cur
	s.launch = launchSnap{
		l:         cur.l,
		pending:   slices.Clone(cur.pending),
		resident:  cur.resident,
		nextSM:    cur.nextSM,
		span:      cur.span,
		statsBase: cur.statsBase,
	}
	s.spans = slices.Clone(r.res.Spans)
	s.knames = slices.Clone(r.knames)
	s.kstats = slices.Clone(r.kstats)
	s.fixed = s.footprint()
	s.bytes = s.fixed + s.pageBytes()
	if !r.opts.Legacy {
		r.syncDirty(s)
	}
	return s
}

func captureSM(sm *SM, dst *smSnap, base *smSnap) {
	if base != nil {
		dst.rfPages = savePages(sm.RF, sm.rfDirty, base.rfPages, rfPageWords)
		dst.smPages = savePages(sm.Smem, sm.smDirty, base.smPages, smPageBytes)
	} else {
		dst.rfPages = savePages[uint32](sm.RF, sm.rfDirty, nil, rfPageWords)
		dst.smPages = savePages[byte](sm.Smem, sm.smDirty, nil, smPageBytes)
	}
	dst.rfFree = slices.Clone(sm.rfAlloc.free)
	dst.smFree = slices.Clone(sm.smAlloc.free)
	sm.L1D.SaveState(&dst.l1d)
	sm.L1T.SaveState(&dst.l1t)
	dst.threadsUsed = sm.threadsUsed
	dst.issuePtr = sm.issuePtr
	dst.ctas = make([]ctaSnap, len(sm.ctas))
	for i, c := range sm.ctas {
		captureCTA(c, &dst.ctas[i])
	}
}

func captureCTA(c *ctaRT, dst *ctaSnap) {
	dst.launch = c.launch
	dst.prog = c.prog
	dst.params = c.params
	dst.cx, dst.cy = c.cx, c.cy
	dst.warps = make([]warpSnap, len(c.warps))
	for i, w := range c.warps {
		dst.warps[i] = warpSnap{fullMask: w.FullMask, exited: w.Exited, stack: slices.Clone(w.Stack)}
	}
	dst.meta = slices.Clone(c.meta)
	dst.preds = slices.Clone(c.preds)
	dst.live = c.live
	dst.rfBase, dst.rfSize = c.rfBase, c.rfSize
	dst.smBase, dst.smSize = c.smBase, c.smSize
	dst.threads = c.threads
	dst.schedID = c.schedID
}

// syncDirty re-bases the runner's page provenance on s: after it returns,
// every clean page is bit-identical to s's corresponding page. Device-memory
// writes are tracked precisely, so those bits simply clear; the warp hot
// path deliberately does NOT mark register/shared-memory writes, so pages
// overlapping any resident CTA's allocations are conservatively re-marked
// dirty — sharing for those arrays comes from the unallocated (quiescent)
// regions, which dominate for small kernels.
func (r *runner) syncDirty(s *Snapshot) {
	r.baseSnap = s
	for _, sm := range r.sms {
		clear(sm.rfDirty)
		clear(sm.smDirty)
		for _, cta := range sm.ctas {
			sm.MarkRFRange(cta.rfBase, cta.rfSize)
			sm.MarkSmemRange(cta.smBase, cta.smSize)
		}
	}
	r.mem.ClearPageDirty()
}

// restore overwrites the runner's state from the snapshot, skipping storage
// pages that the provenance base proves are already identical, and re-bases
// the provenance on s. Legacy runners take the full-copy path and carry no
// provenance (keeping the reference core an honest baseline). The runner
// must have been built for the same job and configuration; the injection
// hook is re-armed (snapshots are taken on fault-free reference runs,
// strictly before any resumed run's injection cycle).
func (r *runner) restore(s *Snapshot) {
	if len(r.sms) != len(s.sms) {
		panic("sim: restore onto a machine with a different SM count")
	}
	base := r.baseSnap
	if r.opts.Legacy {
		base = nil
	}
	r.cycle = s.cycle
	r.si = s.si
	r.steps = s.steps
	r.schedNext = s.schedNext
	r.fired = false
	r.dramRead = s.dramRead
	r.dramWrite = s.dramWrite
	var dmemBase *device.PagedState
	if base != nil {
		dmemBase = &base.dmem
	}
	r.mem.LoadPaged(&s.dmem, dmemBase)
	r.l2.LoadState(&s.l2)
	for i, sm := range r.sms {
		var bs *smSnap
		if base != nil {
			bs = &base.sms[i]
		}
		r.restoreSM(sm, &s.sms[i], bs)
	}
	r.cur = &launchState{
		l:         s.launch.l,
		pending:   slices.Clone(s.launch.pending),
		resident:  s.launch.resident,
		nextSM:    s.launch.nextSM,
		span:      s.launch.span,
		statsBase: s.launch.statsBase,
	}
	r.res.Spans = append(r.res.Spans[:0], s.spans...)
	r.knames = append(r.knames[:0], s.knames...)
	r.kstats = append(r.kstats[:0], s.kstats...)
	if r.opts.Legacy {
		r.baseSnap = nil
	} else {
		r.syncDirty(s)
	}
}

func (r *runner) restoreSM(sm *SM, src *smSnap, base *smSnap) {
	if pageCount(len(sm.RF), rfPageWords) != len(src.rfPages) || pageCount(len(sm.Smem), smPageBytes) != len(src.smPages) {
		panic("sim: restore onto a machine with different SM geometry")
	}
	if base != nil {
		loadPages(sm.RF, src.rfPages, sm.rfDirty, base.rfPages, rfPageWords)
		loadPages(sm.Smem, src.smPages, sm.smDirty, base.smPages, smPageBytes)
	} else {
		loadPages[uint32](sm.RF, src.rfPages, sm.rfDirty, nil, rfPageWords)
		loadPages[byte](sm.Smem, src.smPages, sm.smDirty, nil, smPageBytes)
	}
	sm.rfAlloc.free = append(sm.rfAlloc.free[:0], src.rfFree...)
	sm.smAlloc.free = append(sm.smAlloc.free[:0], src.smFree...)
	sm.L1D.LoadState(&src.l1d)
	sm.L1T.LoadState(&src.l1t)
	sm.threadsUsed = src.threadsUsed
	sm.issuePtr = src.issuePtr
	sm.ctas = sm.ctas[:0]
	for i := range src.ctas {
		sm.ctas = append(sm.ctas, r.restoreCTA(&src.ctas[i]))
	}
	sm.rebuildSlots()
	sm.nextReady = 0
}

func (r *runner) restoreCTA(src *ctaSnap) *ctaRT {
	c := &ctaRT{
		launch:  src.launch,
		prog:    src.prog,
		params:  src.params,
		cx:      src.cx,
		cy:      src.cy,
		meta:    slices.Clone(src.meta),
		preds:   slices.Clone(src.preds),
		live:    src.live,
		rfBase:  src.rfBase,
		rfSize:  src.rfSize,
		smBase:  src.smBase,
		smSize:  src.smSize,
		threads: src.threads,
		schedID: src.schedID,
	}
	if r.fast {
		c.uprog = uop.Cached(src.prog)
	}
	for i := range src.warps {
		ws := &src.warps[i]
		c.warps = append(c.warps, &exec.Warp{FullMask: ws.fullMask, Exited: ws.exited, Stack: slices.Clone(ws.stack)})
	}
	return c
}

// matches reports whether the runner's live state is bit-identical to the
// snapshot. It compares the full deterministic closure — schedule position,
// launch progress, accumulated spans/stats, storage arrays, allocator free
// lists, warp contexts, caches, device memory and DRAM counters — so a
// match guarantees the continuation (and thus the final Result) equals the
// reference run's. Storage pages that are clean against the provenance base
// and shared between the snapshot and the base are skipped.
func (r *runner) matches(s *Snapshot) bool {
	if r.cycle != s.cycle || r.si != s.si || r.steps != s.steps || r.schedNext != s.schedNext {
		return false
	}
	if r.dramRead != s.dramRead || r.dramWrite != s.dramWrite {
		return false
	}
	cur := r.cur
	ls := &s.launch
	if cur.l != ls.l || cur.resident != ls.resident || cur.nextSM != ls.nextSM ||
		cur.span != ls.span || cur.statsBase != ls.statsBase {
		return false
	}
	if !slices.Equal(cur.pending, ls.pending) {
		return false
	}
	if !slices.Equal(r.res.Spans, s.spans) {
		return false
	}
	if !slices.Equal(r.knames, s.knames) || !slices.Equal(r.kstats, s.kstats) {
		return false
	}
	if len(r.sms) != len(s.sms) {
		return false
	}
	// Last-diff probe: a not-yet-converged run usually stays diverged at the
	// very storage page that failed the previous compare (the flipped word
	// persists until overwritten), so checking that one page first turns the
	// common failing compare into a single-page memcmp. Purely derived state:
	// a stale probe just falls through to the full compare.
	if d := r.lastDiff; r.fast && d.valid && d.sm < len(r.sms) {
		sm, ss := r.sms[d.sm], &s.sms[d.sm]
		if d.smem {
			if d.page < len(ss.smPages) {
				pg := ss.smPages[d.page]
				if !slices.Equal(sm.Smem[d.page*smPageBytes:d.page*smPageBytes+len(pg)], pg) {
					return false
				}
			}
		} else if d.page < len(ss.rfPages) {
			pg := ss.rfPages[d.page]
			if !slices.Equal(sm.RF[d.page*rfPageWords:d.page*rfPageWords+len(pg)], pg) {
				return false
			}
		}
		r.lastDiff.valid = false
	}
	base := r.baseSnap
	for i, sm := range r.sms {
		var bs *smSnap
		if base != nil {
			bs = &base.sms[i]
		}
		if !r.smEqual(i, sm, &s.sms[i], bs) {
			return false
		}
	}
	var dmemBase *device.PagedState
	if base != nil {
		dmemBase = &base.dmem
	}
	if !r.mem.PagedEqual(&s.dmem, dmemBase) {
		return false
	}
	return r.l2.StateEqual(&s.l2)
}

func (r *runner) smEqual(idx int, sm *SM, src *smSnap, base *smSnap) bool {
	if sm.threadsUsed != src.threadsUsed || sm.issuePtr != src.issuePtr {
		return false
	}
	if len(sm.ctas) != len(src.ctas) {
		return false
	}
	for i, c := range sm.ctas {
		if !ctaEqual(c, &src.ctas[i]) {
			return false
		}
	}
	if !slices.Equal(sm.rfAlloc.free, src.rfFree) || !slices.Equal(sm.smAlloc.free, src.smFree) {
		return false
	}
	// Storage pages before cache states: a not-yet-converged run usually
	// differs in data first, and the page compare has the provenance fast
	// path while the cache compare is always a full scan.
	var rfBase [][]uint32
	var smBase [][]byte
	if base != nil {
		rfBase, smBase = base.rfPages, base.smPages
	}
	if p := pagesEqual(sm.RF, src.rfPages, sm.rfDirty, rfBase, rfPageWords); p >= 0 {
		r.lastDiff = diffProbe{valid: true, sm: idx, page: p}
		return false
	}
	if p := pagesEqual(sm.Smem, src.smPages, sm.smDirty, smBase, smPageBytes); p >= 0 {
		r.lastDiff = diffProbe{valid: true, sm: idx, page: p, smem: true}
		return false
	}
	return sm.L1D.StateEqual(&src.l1d) && sm.L1T.StateEqual(&src.l1t)
}

func ctaEqual(c *ctaRT, src *ctaSnap) bool {
	if c.launch != src.launch || c.prog != src.prog || c.schedID != src.schedID {
		return false
	}
	if c.cx != src.cx || c.cy != src.cy || c.live != src.live || c.threads != src.threads {
		return false
	}
	if c.rfBase != src.rfBase || c.rfSize != src.rfSize || c.smBase != src.smBase || c.smSize != src.smSize {
		return false
	}
	if !slices.Equal(c.params, src.params) {
		return false
	}
	if !slices.Equal(c.meta, src.meta) || !slices.Equal(c.preds, src.preds) {
		return false
	}
	if len(c.warps) != len(src.warps) {
		return false
	}
	for i, w := range c.warps {
		ws := &src.warps[i]
		if w.FullMask != ws.fullMask || w.Exited != ws.exited || !slices.Equal(w.Stack, ws.stack) {
			return false
		}
	}
	return true
}

// footprint approximates the retained size of the snapshot excluding the
// shareable storage pages (device memory, register files, shared memories).
func (s *Snapshot) footprint() int64 {
	n := s.l2.StateBytes()
	n += int64(len(s.dmem.Pages())) * 16 // page headers
	for i := range s.sms {
		sm := &s.sms[i]
		n += int64(len(sm.rfPages)+len(sm.smPages)) * 16
		n += int64(len(sm.rfFree)+len(sm.smFree)) * 16
		n += sm.l1d.StateBytes() + sm.l1t.StateBytes()
		for j := range sm.ctas {
			c := &sm.ctas[j]
			n += int64(len(c.meta))*10 + int64(len(c.preds)) + 96
			for k := range c.warps {
				n += int64(len(c.warps[k].stack))*12 + 16
			}
		}
	}
	n += int64(len(s.launch.pending)) * 24
	n += int64(len(s.spans)) * 64
	n += int64(len(s.knames)) * 160
	return n + 256
}

// pageBytes sums the sizes of all storage pages, sharing ignored.
func (s *Snapshot) pageBytes() int64 {
	n := s.dmem.StateBytes()
	for i := range s.sms {
		sm := &s.sms[i]
		for _, pg := range sm.rfPages {
			n += int64(len(pg)) * 4
		}
		for _, pg := range sm.smPages {
			n += int64(len(pg))
		}
	}
	return n
}

// SnapshotSet holds the checkpoints of one reference run, ordered by cycle.
// It is written single-threaded during the reference run and read-only
// afterwards, so concurrent resumed runs may share it without locking.
//
// A memory budget bounds the retained bytes: when an appended snapshot
// pushes the set over budget, the stride doubles and snapshots that fall
// off the widened grid are evicted, preserving the invariant that every
// retained cycle is a multiple of the current stride. Retained bytes are
// exact under page sharing: a page aliased by several snapshots counts
// once.
type SnapshotSet struct {
	stride  int64
	budget  int64
	snaps   []*Snapshot
	bytes   int64
	evicted int64
}

// NewSnapshotSet creates a set capturing every stride-th cycle, retaining at
// most budgetBytes of snapshot state (<= 0 means unlimited). A stride <= 0
// disables capture.
func NewSnapshotSet(stride, budgetBytes int64) *SnapshotSet {
	return &SnapshotSet{stride: stride, budget: budgetBytes}
}

// Len returns the number of retained snapshots.
func (s *SnapshotSet) Len() int { return len(s.snaps) }

// Snap returns the i-th retained snapshot in cycle order.
func (s *SnapshotSet) Snap(i int) *Snapshot { return s.snaps[i] }

// Bytes returns the retained size of all snapshots, counting pages shared
// between snapshots once.
func (s *SnapshotSet) Bytes() int64 { return s.bytes }

// Stride returns the current capture stride in cycles (0 when capture has
// been disabled by budget pressure).
func (s *SnapshotSet) Stride() int64 { return s.stride }

// Evicted returns the number of snapshots dropped to fit the budget.
func (s *SnapshotSet) Evicted() int64 { return s.evicted }

// recount recomputes the exact retained bytes of the set: each snapshot's
// fixed state plus every distinct storage page, identified by its backing
// array; the shared device zero page is not retained by the set and counts
// 0. The maps are used for membership only (never iterated), so the walk is
// deterministic.
func (s *SnapshotSet) recount() {
	var n int64
	seenB := make(map[*byte]struct{})
	seenW := make(map[*uint32]struct{})
	for _, snap := range s.snaps {
		n += snap.fixed
		for _, pg := range snap.dmem.Pages() {
			if len(pg) == 0 || device.IsZeroPage(pg) {
				continue
			}
			if _, ok := seenB[&pg[0]]; !ok {
				seenB[&pg[0]] = struct{}{}
				n += int64(len(pg))
			}
		}
		for i := range snap.sms {
			sm := &snap.sms[i]
			for _, pg := range sm.rfPages {
				if len(pg) == 0 {
					continue
				}
				if _, ok := seenW[&pg[0]]; !ok {
					seenW[&pg[0]] = struct{}{}
					n += int64(len(pg)) * 4
				}
			}
			for _, pg := range sm.smPages {
				if len(pg) == 0 {
					continue
				}
				if _, ok := seenB[&pg[0]]; !ok {
					seenB[&pg[0]] = struct{}{}
					n += int64(len(pg))
				}
			}
		}
	}
	s.bytes = n
}

// offer captures a snapshot if the runner's cycle is on the stride grid,
// then enforces the budget.
func (s *SnapshotSet) offer(r *runner) {
	if s.stride <= 0 || r.cycle%s.stride != 0 {
		return
	}
	snap := r.capture()
	s.snaps = append(s.snaps, snap)
	s.recount()
	for s.budget > 0 && s.bytes > s.budget {
		if !s.widen() {
			break
		}
	}
}

// widen doubles the stride and evicts snapshots off the widened grid. When
// no further widening can help (a single snapshot already exceeds the
// budget), the set is emptied and capture disabled; it returns false.
func (s *SnapshotSet) widen() bool {
	if len(s.snaps) <= 1 {
		s.evicted += int64(len(s.snaps))
		s.snaps = s.snaps[:0]
		s.bytes = 0
		s.stride = 0
		return false
	}
	s.stride *= 2
	kept := s.snaps[:0]
	for _, snap := range s.snaps {
		if snap.cycle%s.stride == 0 {
			kept = append(kept, snap)
		} else {
			s.evicted++
		}
	}
	for i := len(kept); i < len(s.snaps); i++ {
		s.snaps[i] = nil
	}
	s.snaps = kept
	s.recount()
	return true
}

// Before returns the latest snapshot taken strictly before cycle c, or nil.
// Strictness matters for resume: the injection hook fires at the top of the
// cycle body while snapshots capture its end, so a resumed run whose hook
// must fire at cycle c has to start from a cycle below it.
func (s *SnapshotSet) Before(c int64) *Snapshot {
	lo, hi := 0, len(s.snaps)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.snaps[mid].cycle < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return s.snaps[lo-1]
}

// at returns the snapshot taken exactly at cycle c, or nil. The stride
// modulo gate keeps the common (non-checkpoint) cycle to a single test.
func (s *SnapshotSet) at(c int64) *Snapshot {
	if s.stride <= 0 || c%s.stride != 0 {
		return nil
	}
	lo, hi := 0, len(s.snaps)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.snaps[mid].cycle < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.snaps) && s.snaps[lo].cycle == c {
		return s.snaps[lo]
	}
	return nil
}

// RunPool recycles the large machine-state arrays (register files, shared
// memories, caches, device memory image) across runs so a campaign's
// per-run cost is simulation, not allocation. Safe for concurrent use. A
// pooled machine is only reused for an identical configuration and device
// memory capacity; fresh runs reset it to pristine state first, resumed
// runs are overwritten wholesale by the snapshot restore.
type RunPool struct {
	pool sync.Pool
}

// NewRunPool creates an empty pool.
func NewRunPool() *RunPool { return &RunPool{} }

type pooledMachine struct {
	cfg    gpu.Config
	memCap int
	sms    []*SM
	l2     *mem.Cache
	mem    *device.Memory
	// baseSnap is the provenance the machine's page-dirty bits were last
	// synced against; it travels with the arrays so a resumed run can
	// restore copy-on-write instead of wholesale.
	baseSnap *Snapshot
}

func (p *RunPool) get(cfg gpu.Config, memCap int) *pooledMachine {
	v := p.pool.Get()
	if v == nil {
		return nil
	}
	pm := v.(*pooledMachine)
	if pm.cfg != cfg || pm.memCap != memCap {
		// Wrong geometry: drop it; the next put replaces it with a matching
		// machine.
		return nil
	}
	return pm
}

func (p *RunPool) put(r *runner) {
	p.pool.Put(&pooledMachine{cfg: r.cfg, memCap: r.mem.Size(), sms: r.sms, l2: r.l2, mem: r.mem, baseSnap: r.baseSnap})
}
