// Package softfi is the NVBitFI analogue: software-level statistical fault
// injection. Each experiment flips one bit of the destination register value
// of one uniformly chosen dynamic instruction of the target kernel (faults
// land only in alive, software-visible data — §II-C), then classifies the
// functional run against the golden output. Variants restrict the candidate
// set to load instructions (SVF-LD) or corrupt a single operand use (the
// transient-operand ablation of §V-B).
//
// Every experiment forks: the golden run records device memory at each CTA
// start, an injection run resumes from the last CTA start before its flip,
// and it stops as soon as its memory rejoins the golden run's at a later
// CTA start (funcsim's package comment says why that is exact).
package softfi

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"gpurel/internal/device"
	"gpurel/internal/faults"
	"gpurel/internal/funcsim"
)

// Mode selects the injection candidate set.
type Mode uint8

// Injection modes.
const (
	// SVF: destination registers of all register-writing instructions.
	SVF Mode = iota
	// SVFLD: destination registers of load instructions only.
	SVFLD
	// SVFUse: one source-operand read, without corrupting stored state.
	SVFUse
)

func (m Mode) String() string {
	switch m {
	case SVF:
		return "SVF"
	case SVFLD:
		return "SVF-LD"
	case SVFUse:
		return "SVF-USE"
	}
	return "?"
}

// VoteKernelName mirrors microfi's constant.
const VoteKernelName = "vote"

// GoldenRun caches the fault-free functional execution and its CTA-start
// checkpoints. It is safe for concurrent injections.
type GoldenRun struct {
	Res *funcsim.Result

	ck                    *funcsim.Checkpoints
	forks, joins, skipped atomic.Int64
}

// ForkCounts are the fork-and-join statistics of the injections run against
// one golden run. They are sums over runs, so a fixed set of (seed, run)
// pairs gives the same counts in any order and on any number of workers.
type ForkCounts struct {
	Forks         int64 // runs resumed from a CTA start after instruction 0
	Joins         int64 // runs that rejoined the golden run
	InstrsSkipped int64 // golden dynamic instructions not re-executed
}

// Counts returns the fork-and-join statistics so far.
func (g *GoldenRun) Counts() ForkCounts {
	return ForkCounts{Forks: g.forks.Load(), Joins: g.joins.Load(), InstrsSkipped: g.skipped.Load()}
}

// Golden runs the job fault-free, collecting per-kernel candidate windows
// and a checkpoint at every CTA start.
func Golden(job *device.Job) (*GoldenRun, error) {
	ck := &funcsim.Checkpoints{}
	res := funcsim.Run(job, funcsim.Options{CollectWindows: true, Capture: ck})
	if res.Err != nil {
		return nil, fmt.Errorf("golden run failed: %w", res.Err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("golden run timed out")
	}
	if res.DUEFlag {
		return nil, fmt.Errorf("golden run raised the DUE flag")
	}
	return &GoldenRun{Res: res, ck: ck}, nil
}

// Target selects the kernel and candidate set of an experiment.
type Target struct {
	Kernel      string // "" = whole application
	Mode        Mode
	IncludeVote bool
}

func (t Target) windows(g *GoldenRun) []funcsim.Window {
	// iterate kernels in sorted order: window order must be deterministic
	names := make([]string, 0, len(g.Res.PerKernel))
	for name := range g.Res.PerKernel {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []funcsim.Window
	for _, name := range names {
		kc := g.Res.PerKernel[name]
		if t.Kernel != "" && name != t.Kernel && !(t.IncludeVote && name == VoteKernelName) {
			continue
		}
		switch t.Mode {
		case SVF:
			out = append(out, kc.DstWindows...)
		case SVFLD:
			out = append(out, kc.LoadWindows...)
		case SVFUse:
			out = append(out, kc.UseWindows...)
		}
	}
	return out
}

// Candidates returns the number of injectable dynamic events for the target.
func (t Target) Candidates(g *GoldenRun) int64 {
	var total int64
	for _, w := range t.windows(g) {
		total += w.Len()
	}
	return total
}

func (t Target) pickIndex(g *GoldenRun, rng *rand.Rand) (int64, bool) {
	total := t.Candidates(g)
	if total <= 0 {
		return 0, false
	}
	k := rng.Int63n(total)
	for _, w := range t.windows(g) {
		if k < w.Len() {
			return w.Start + k, true
		}
		k -= w.Len()
	}
	return 0, false
}

// Inject performs one software-level injection experiment.
func Inject(job *device.Job, g *GoldenRun, t Target, rng *rand.Rand) faults.Result {
	inj, ok := t.draw(g, rng)
	if !ok {
		return faults.Result{Outcome: faults.Masked, Detail: "no injection candidates"}
	}
	return Classify(g, g.run(job, inj))
}

// draw picks the injection site of one experiment.
func (t Target) draw(g *GoldenRun, rng *rand.Rand) (funcsim.Injection, bool) {
	idx, ok := t.pickIndex(g, rng)
	if !ok {
		return funcsim.Injection{}, false
	}
	mode := funcsim.InjectDst
	switch t.Mode {
	case SVFLD:
		mode = funcsim.InjectDstLoad
	case SVFUse:
		mode = funcsim.InjectUse
	}
	return funcsim.Injection{Mode: mode, Index: idx, Bit: uint8(rng.Intn(32))}, true
}

// budget is the dynamic-instruction timeout budget of an injection run.
func (g *GoldenRun) budget() int64 { return g.Res.DynInstrs * 10 }

// run executes one injection, forked from the last CTA start before the
// flip and rejoining the golden run where it can.
func (g *GoldenRun) run(job *device.Job, inj funcsim.Injection) *funcsim.Result {
	res := funcsim.Run(job, funcsim.Options{MaxDynInstrs: g.budget(), Inject: &inj, Fork: g.ck})
	if res.Forked {
		g.forks.Add(1)
	}
	if res.Joined {
		g.joins.Add(1)
	}
	g.skipped.Add(res.Skipped)
	return res
}

// Classify compares a run against the golden functional run. The
// control-path proxy compares executed instruction counts (funcsim has no
// cycles).
func Classify(g *GoldenRun, res *funcsim.Result) faults.Result {
	switch {
	case res.TimedOut:
		return faults.Result{Outcome: faults.Timeout}
	case res.Err != nil:
		return faults.Result{Outcome: faults.DUE, Detail: res.Err.Error()}
	case res.DUEFlag:
		return faults.Result{Outcome: faults.DUE, Detail: "application-detected (TMR vote disagreement)"}
	case !bytesEqual(res.Output, g.Res.Output):
		return faults.Result{Outcome: faults.SDC}
	default:
		return faults.Result{Outcome: faults.Masked, CtrlAffected: res.DynInstrs != g.Res.DynInstrs}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
