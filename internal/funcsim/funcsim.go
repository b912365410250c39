// Package funcsim is the software-level executor: it runs a device.Job with
// pure functional semantics — no caches, no timing, registers as plain
// per-thread state. It is the substrate of the NVBitFI-analogue injector
// (internal/softfi): dynamic instructions are counted per thread, and a
// configurable injection flips one bit of a destination-register value (or,
// in the operand-transient ablation mode, the value seen by one source read).
//
// The speed gap between this executor and the cycle-level simulator is the
// very speed gap the paper attributes to software-level methods (§I fn. 1).
//
// Injection runs fork and join. A golden run with Options.Capture records a
// checkpoint at every CTA start; a run with Options.Fork resumes from the
// last one before its flip instead of instruction 0 and, once its flip has
// fired, ends early when its device memory equals the golden run's at a
// later CTA start with the same key. Both are exact because CTAs run one at a time: registers, predicates
// and shared memory die at each CTA end, host steps are pure functions of
// device memory, and so the memory plus the schedule position is the whole
// machine state at a CTA boundary (docs/perf.md, "SVF fork-and-join").
package funcsim

import (
	"fmt"
	"sort"
	"sync"

	"gpurel/internal/device"
	"gpurel/internal/exec"
	"gpurel/internal/isa"
)

// InjectMode selects what the injection corrupts.
type InjectMode uint8

// Injection modes.
const (
	// InjectDst flips a bit of a destination register value right after the
	// chosen dynamic instruction writes it — NVBitFI's model.
	InjectDst InjectMode = iota
	// InjectDstLoad is InjectDst restricted to load instructions (SVF-LD).
	InjectDstLoad
	// InjectUse flips a bit of the value read by one dynamic source-operand
	// use without changing stored state — the "instantaneous" model whose
	// blind spot §V-B describes.
	InjectUse
)

// Injection selects one dynamic injection site. Index counts candidate
// events (destination writes for InjectDst/InjectDstLoad, source reads for
// InjectUse) from 0 across the whole job.
type Injection struct {
	Mode  InjectMode
	Index int64
	Bit   uint8
}

// Window is a half-open interval of candidate indices belonging to one
// kernel, used to target injections at a specific kernel.
type Window struct{ Start, End int64 }

// Len returns the window length.
func (w Window) Len() int64 { return w.End - w.Start }

// KernelCounts aggregates per-kernel dynamic statistics of a golden run.
type KernelCounts struct {
	DynInstrs   int64 // thread-instructions executed (SVF app weighting)
	DstWindows  []Window
	LoadWindows []Window
	UseWindows  []Window
}

// Result reports one functional run.
type Result struct {
	Err       error // non-nil = DUE
	TimedOut  bool
	Output    []byte // a joined run shares the golden run's slice: read-only
	DynInstrs int64
	DstCands  int64
	LoadCands int64
	UseCands  int64
	// PerKernel counts what this run executed; a forked run skips the golden
	// prefix before its resume point and, if it joins, the golden suffix.
	PerKernel map[string]*KernelCounts
	DUEFlag   bool // application-signalled DUE (TMR voter disagreement)

	// Forked reports that a forked run resumed after instruction 0, and
	// Joined that it rejoined the golden run; Skipped counts the golden
	// dynamic instructions it did not execute (prefix plus suffix). The
	// counters above include both, as if run from scratch.
	Forked, Joined bool
	Skipped        int64
}

// RegTracer observes architectural register liveness for PVF analysis
// (Sridharan & Kaeli's Program Vulnerability Factor, the paper's §VII).
// CTAs execute sequentially in the functional simulator, so callbacks always
// refer to the most recently started CTA; slot = thread*numRegs + reg.
// The `at` argument is the global dynamic-instruction counter.
type RegTracer interface {
	OnCTAStart(threads, numRegs int, at int64)
	OnRegWrite(slot int, at int64)
	OnRegRead(slot int, at int64)
	OnCTAEnd(at int64)
}

// Options configures a run.
type Options struct {
	// MaxDynInstrs is the timeout budget in thread-instructions (0 = none).
	MaxDynInstrs int64
	Inject       *Injection
	// CollectWindows enables per-kernel window recording (golden runs).
	CollectWindows bool
	// RegTrace, when set, receives architectural register liveness events.
	RegTrace RegTracer
	// Capture, when set, receives a point at every CTA start (golden runs).
	Capture *Checkpoints
	// Fork, when set to a completed golden run's checkpoints, resumes the
	// run from the last CTA start before its flip and rejoins the golden run
	// once the injection has fired (injection runs).
	Fork *Checkpoints
}

// pointKey names a CTA start: the schedule step index, the number of
// schedule steps begun before it (host-step loops revisit step indices), and
// the CTA's linear index within the launch, replicas included.
type pointKey struct{ Step, Sched, CTA int }

// point is the state of a golden run at one CTA start: the dynamic counters
// and a copy-on-write image of device memory.
type point struct {
	Key                                      pointKey
	DynInstrs, DstCands, LoadCands, UseCands int64
	Mem                                      device.PagedState
}

// Checkpoints is the point at every CTA start of one golden run, in
// execution order. It is written by the capturing run and read-only
// afterwards, so concurrent forked runs share it without locking.
type Checkpoints struct {
	points []*point
	byKey  map[pointKey]*point // lookup only, never ranged over
	golden *Result
	// pool recycles the workspaces of forked runs, so a run restores only
	// the pages that differ instead of cloning the whole memory image.
	pool sync.Pool
}

func (c *Checkpoints) add(key pointKey, res *Result, mem *device.Memory) {
	pt := &point{Key: key, DynInstrs: res.DynInstrs, DstCands: res.DstCands, LoadCands: res.LoadCands, UseCands: res.UseCands}
	var prev *device.PagedState
	if n := len(c.points); n > 0 {
		prev = &c.points[n-1].Mem
	}
	mem.SavePaged(&pt.Mem, prev)
	mem.ClearPageDirty()
	c.points = append(c.points, pt)
	if c.byKey == nil {
		c.byKey = map[pointKey]*point{}
	}
	c.byKey[key] = pt
}

// counter returns the point's candidate counter for an injection mode.
func (pt *point) counter(m InjectMode) int64 {
	switch m {
	case InjectDstLoad:
		return pt.LoadCands
	case InjectUse:
		return pt.UseCands
	}
	return pt.DstCands
}

// resumePoint returns the last point whose candidate counter for the
// injection's mode is at most its index: the latest CTA start that precedes
// the flip. The first point has every counter at 0, so one always exists.
func (c *Checkpoints) resumePoint(inj Injection) *point {
	i := sort.Search(len(c.points), func(i int) bool {
		return c.points[i].counter(inj.Mode) > inj.Index
	})
	return c.points[i-1]
}

// workspace is the reusable state of forked runs: a device memory, the
// point its write-tracking is relative to, and the per-CTA buffers. A
// workspace serves one run at a time.
type workspace struct {
	mem  *device.Memory
	base *device.PagedState
	cta  ctaEnv
}

// Run executes the job functionally. The job's memory image is cloned (or,
// for a forked run, restored page-wise into a pooled workspace), so a Job
// can be reused across runs.
func Run(job *device.Job, opts Options) *Result {
	res := &Result{PerKernel: map[string]*KernelCounts{}}
	r := &runner{opts: opts, res: res}
	var start pointKey
	if c := opts.Fork; c != nil {
		start = r.resume(job, c)
		defer c.pool.Put(r.ws)
	} else {
		r.ws = &workspace{mem: job.Mem.Clone()}
	}
	r.ws.cta.bind(r)
	mem := r.ws.mem

	maxSteps := job.MaxScheduleSteps()
	stepCount := start.Sched
	for si := start.Step; si < len(job.Steps); {
		if stepCount >= maxSteps {
			res.TimedOut = true
			return res
		}
		stepCount++
		st := &job.Steps[si]
		if st.Host != nil {
			next := st.Host(mem, 0)
			if next >= 0 {
				si = next
			} else {
				si++
			}
			continue
		}
		err := r.launch(st.Launch, pointKey{Step: si, Sched: stepCount - 1, CTA: start.CTA})
		start.CTA = 0
		switch err {
		case nil:
		case errJoined:
			return res
		case errTimeout:
			res.TimedOut = true
			return res
		default:
			res.Err = err
			return res
		}
		si++
	}
	res.Output = job.ReadOutputs(mem)
	if job.DUEFlag != 0 && mem.PeekU32(job.DUEFlag) != 0 {
		res.DUEFlag = true
	}
	if c := opts.Capture; c != nil {
		c.golden = res
	}
	return res
}

// resume takes a workspace from the pool, restores the last point before
// the flip into it and into the result's counters, and returns the point's
// key.
func (r *runner) resume(job *device.Job, c *Checkpoints) pointKey {
	o := r.opts
	if o.Inject == nil || o.Capture != nil || o.CollectWindows || o.RegTrace != nil {
		panic("funcsim: a forked run injects and records nothing")
	}
	if c.golden == nil {
		panic("funcsim: fork from a golden run that did not complete")
	}
	pt := c.resumePoint(*o.Inject)
	ws, _ := c.pool.Get().(*workspace)
	if ws == nil {
		ws = &workspace{mem: job.Mem.Clone()}
	}
	ws.mem.LoadPaged(&pt.Mem, ws.base)
	ws.mem.ClearPageDirty()
	ws.base = &pt.Mem
	r.ws = ws
	r.golden = c
	res := r.res
	res.DynInstrs, res.DstCands, res.LoadCands, res.UseCands = pt.DynInstrs, pt.DstCands, pt.LoadCands, pt.UseCands
	res.Forked = pt.DynInstrs > 0
	res.Skipped = pt.DynInstrs
	return pt.Key
}

// ctaStart runs at every CTA start: a capturing run records a point there,
// and a forked run whose flip has fired joins the golden run if device
// memory matches the golden point with the same key.
func (r *runner) ctaStart(key pointKey) error {
	if c := r.opts.Capture; c != nil {
		c.add(key, r.res, r.ws.mem)
		return nil
	}
	if !r.fired || r.golden == nil {
		return nil
	}
	pt := r.golden.byKey[key]
	if pt == nil || !r.ws.mem.PagedEqual(&pt.Mem, r.ws.base) {
		return nil
	}
	g, res := r.golden.golden, r.res
	tail := g.DynInstrs - pt.DynInstrs
	if budget := r.opts.MaxDynInstrs; budget > 0 && res.DynInstrs+tail > budget {
		// The golden tail crosses the budget: the run times out. Stop
		// looking for joins and run it out, so that DynInstrs reports the
		// exact crossing point, as a run from scratch does.
		r.golden = nil
		return nil
	}
	res.DynInstrs += tail
	res.DstCands += g.DstCands - pt.DstCands
	res.LoadCands += g.LoadCands - pt.LoadCands
	res.UseCands += g.UseCands - pt.UseCands
	res.Output, res.DUEFlag = g.Output, g.DUEFlag
	res.Joined = true
	res.Skipped += tail
	return errJoined
}

var (
	errTimeout = fmt.Errorf("dynamic instruction budget exceeded")
	errJoined  = fmt.Errorf("rejoined the golden run")
)

type runner struct {
	ws     *workspace
	opts   Options
	res    *Result
	golden *Checkpoints // joins are possible while set
	fired  bool         // the injection has been applied
}

func (r *runner) kernelCounts(name string) *KernelCounts {
	kc := r.res.PerKernel[name]
	if kc == nil {
		kc = &KernelCounts{}
		r.res.PerKernel[name] = kc
	}
	return kc
}

// ctaEnv is the exec.Env of the running CTA. Its buffers are reused from
// CTA to CTA (and, in a pooled workspace, from run to run).
type ctaEnv struct {
	r                    *runner
	res                  *Result
	trace                RegTracer
	dstAt, loadAt, useAt int64
	flip                 uint32
	params               []uint32
	regs                 []uint32 // threads × NumRegs
	preds                []uint8  // threads × 1 bitfield of 7 predicates
	numRegs              int
	smem                 []byte

	blockX, blockY int
	ctaX, ctaY     int
	gridX, gridY   int
	warpBase       int // thread index of lane 0 of the current warp
	curInstr       *isa.Instr

	warps       []exec.Warp
	atBar, done []bool
}

func (e *ctaEnv) thread(lane int) int { return e.warpBase + lane }

func (e *ctaEnv) ReadReg(lane int, reg isa.Reg) uint32 {
	slot := e.thread(lane)*e.numRegs + int(reg)
	if e.trace != nil {
		e.trace.OnRegRead(slot, e.res.DynInstrs)
	}
	v := e.regs[slot]
	if e.res.UseCands == e.useAt {
		v ^= e.flip
		e.r.fired = true
	}
	e.res.UseCands++
	return v
}

func (e *ctaEnv) WriteReg(lane int, reg isa.Reg, v uint32) {
	if e.res.DstCands == e.dstAt {
		v ^= e.flip
		e.r.fired = true
	}
	e.res.DstCands++
	if e.curInstr != nil && e.curInstr.IsLoad() {
		if e.res.LoadCands == e.loadAt {
			v ^= e.flip
			e.r.fired = true
		}
		e.res.LoadCands++
	}
	slot := e.thread(lane)*e.numRegs + int(reg)
	if e.trace != nil {
		e.trace.OnRegWrite(slot, e.res.DynInstrs)
	}
	e.regs[slot] = v
}

// bind attaches the environment to a run: its result counters, its register
// tracer, and its injection as the candidate index per mode (-1, which no
// counter reaches, for the other modes) plus the flip mask.
func (e *ctaEnv) bind(r *runner) {
	e.r, e.res, e.trace = r, r.res, r.opts.RegTrace
	e.dstAt, e.loadAt, e.useAt, e.flip = -1, -1, -1, 0
	if inj := r.opts.Inject; inj != nil {
		e.flip = 1 << (inj.Bit & 31)
		switch inj.Mode {
		case InjectDst:
			e.dstAt = inj.Index
		case InjectDstLoad:
			e.loadAt = inj.Index
		case InjectUse:
			e.useAt = inj.Index
		}
	}
}

func (e *ctaEnv) ReadPred(lane int, p isa.Pred) bool {
	return e.preds[e.thread(lane)]&(1<<(p-1)) != 0
}

func (e *ctaEnv) WritePred(lane int, p isa.Pred, v bool) {
	if v {
		e.preds[e.thread(lane)] |= 1 << (p - 1)
	} else {
		e.preds[e.thread(lane)] &^= 1 << (p - 1)
	}
}

func (e *ctaEnv) Special(lane int, s isa.SReg) uint32 {
	t := e.thread(lane)
	switch s {
	case isa.SRTidX:
		return uint32(t % e.blockX)
	case isa.SRTidY:
		return uint32(t / e.blockX)
	case isa.SRCtaIDX:
		return uint32(e.ctaX)
	case isa.SRCtaIDY:
		return uint32(e.ctaY)
	case isa.SRNTidX:
		return uint32(e.blockX)
	case isa.SRNTidY:
		return uint32(e.blockY)
	case isa.SRNCtaX:
		return uint32(e.gridX)
	case isa.SRNCtaY:
		return uint32(e.gridY)
	case isa.SRLaneID:
		return uint32(lane)
	}
	return 0
}

func (e *ctaEnv) Param(idx int) uint32 {
	if idx < 0 || idx >= len(e.params) {
		return 0
	}
	return e.params[idx]
}

func (e *ctaEnv) LoadGlobal(lane int, addr uint32, tex bool) (uint32, error) {
	return e.r.ws.mem.Load4(addr)
}

func (e *ctaEnv) StoreGlobal(lane int, addr uint32, v uint32) error {
	return e.r.ws.mem.Store4(addr, v)
}

func (e *ctaEnv) LoadShared(lane int, addr uint32) (uint32, error) {
	if addr%4 != 0 || int(addr)+4 > len(e.smem) {
		return 0, fmt.Errorf("illegal shared memory read at 0x%x", addr)
	}
	return le32(e.smem[addr:]), nil
}

func (e *ctaEnv) StoreShared(lane int, addr uint32, v uint32) error {
	if addr%4 != 0 || int(addr)+4 > len(e.smem) {
		return fmt.Errorf("illegal shared memory write at 0x%x", addr)
	}
	putLE32(e.smem[addr:], v)
	return nil
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// launch executes one kernel launch from the CTA at.CTA on: every CTA of
// every replica, each CTA's warps stepped round-robin to honour barriers.
func (r *runner) launch(l *device.Launch, at pointKey) error {
	prog := l.Kernel
	kc := r.kernelCounts(l.Name())
	dstStart, loadStart, useStart := r.res.DstCands, r.res.LoadCands, r.res.UseCands

	threads := l.ThreadsPerCTA()
	if threads == 0 || prog == nil {
		return fmt.Errorf("launch %s: empty configuration", l.Name())
	}
	perRep := l.GridX * l.GridY
	for ; at.CTA < l.NumCTAs(); at.CTA++ {
		if err := r.ctaStart(at); err != nil {
			return err
		}
		rep, c := at.CTA/perRep, at.CTA%perRep
		if err := r.runCTA(l, prog, kc, l.ParamsFor(rep), c%l.GridX, c/l.GridX); err != nil {
			return err
		}
	}
	if r.opts.CollectWindows {
		kc.DstWindows = append(kc.DstWindows, Window{dstStart, r.res.DstCands})
		kc.LoadWindows = append(kc.LoadWindows, Window{loadStart, r.res.LoadCands})
		kc.UseWindows = append(kc.UseWindows, Window{useStart, r.res.UseCands})
	}
	return nil
}

// reset prepares the environment for a new CTA, reusing the buffers of the
// previous one: registers, predicates and shared memory start zeroed and
// every warp starts at PC 0.
func (e *ctaEnv) reset(l *device.Launch, prog *isa.Program, params []uint32, cx, cy int) {
	threads := l.ThreadsPerCTA()
	e.params = params
	e.numRegs = prog.NumRegs
	e.regs = zeroed(e.regs, threads*prog.NumRegs)
	e.preds = zeroed(e.preds, threads)
	e.smem = zeroed(e.smem, l.SmemBytes)
	e.blockX, e.blockY = l.BlockX, l.BlockY
	e.ctaX, e.ctaY = cx, cy
	e.gridX, e.gridY = l.GridX, l.GridY
	nWarps := (threads + 31) / 32
	e.atBar = zeroed(e.atBar, nWarps)
	e.done = zeroed(e.done, nWarps)
	if cap(e.warps) < nWarps {
		e.warps = make([]exec.Warp, nWarps)
	}
	e.warps = e.warps[:nWarps]
	for w := range e.warps {
		lanes := min(threads-w*32, 32)
		e.warps[w].FullMask = uint32(1)<<lanes - 1 // 1<<32 is 0: all lanes
		e.warps[w].Reset()
	}
}

// zeroed returns buf resized to n elements, all zero, reusing its array.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (r *runner) runCTA(l *device.Launch, prog *isa.Program, kc *KernelCounts, params []uint32, cx, cy int) error {
	if tr := r.opts.RegTrace; tr != nil {
		tr.OnCTAStart(l.ThreadsPerCTA(), prog.NumRegs, r.res.DynInstrs)
		defer func() { tr.OnCTAEnd(r.res.DynInstrs) }()
	}
	env := &r.ws.cta
	env.reset(l, prog, params, cx, cy)
	warps, atBar, done := env.warps, env.atBar, env.done
	nWarps := len(warps)

	remaining := nWarps
	for remaining > 0 {
		progress := false
		for w := 0; w < nWarps; w++ {
			if done[w] || atBar[w] {
				continue
			}
			env.warpBase = w * 32
			// Run the warp until it exits, faults, or hits a barrier.
			for {
				env.curInstr = warps[w].PeekInstr(prog)
				info := exec.Step(&warps[w], prog, env)
				if info.Kind == exec.StepOK || info.Kind == exec.StepExit || info.Kind == exec.StepBarrier {
					n := int64(popcount(info.ActiveMask))
					r.res.DynInstrs += n
					kc.DynInstrs += n
					if r.opts.MaxDynInstrs > 0 && r.res.DynInstrs > r.opts.MaxDynInstrs {
						return errTimeout
					}
				}
				switch info.Kind {
				case exec.StepFault:
					return info.Fault
				case exec.StepExit:
					done[w] = true
					remaining--
					progress = true
				case exec.StepBarrier:
					atBar[w] = true
					progress = true
				default:
					progress = true
					continue
				}
				break
			}
		}
		// Release the barrier when every live warp has arrived.
		if remaining > 0 {
			all := true
			for w := 0; w < nWarps; w++ {
				if !done[w] && !atBar[w] {
					all = false
					break
				}
			}
			if all {
				for w := 0; w < nWarps; w++ {
					if !done[w] {
						atBar[w] = false
						warps[w].AdvancePastBarrier()
					}
				}
				progress = true
			}
		}
		if !progress {
			return fmt.Errorf("CTA (%d,%d) deadlocked", cx, cy)
		}
	}
	return nil
}

func popcount(m uint32) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}
