// Package microfi is the gpuFI-4 analogue: microarchitecture-level
// statistical fault injection into the simulator's storage arrays (register
// files, shared memory, L1 data/texture caches, L2 cache) and control state
// (warp-scheduler entries, divergence stacks, barrier latches). Each
// experiment plants one fault — by default a transient single-bit flip, or
// any internal/faultmodel family — at one uniformly chosen cycle of the
// target kernel's execution window and classifies the run against the
// golden output (§II-B of the paper).
package microfi

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"

	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/sim"
)

// GoldenRun caches the fault-free simulation of a job.
type GoldenRun struct {
	Res *sim.Result
	Cfg gpu.Config

	// Snaps holds the golden run's machine snapshots when built with
	// GoldenCheckpointed (nil otherwise); Ckpt is the spec it was built
	// with. Read-only once the golden run completes.
	Snaps *sim.SnapshotSet
	Ckpt  CheckpointSpec

	// Legacy forces every faulty run spawned from this golden run onto the
	// reference interpreter with full-copy snapshot restores. Differential
	// tests and benchmarks flip it to compare the fast core against the
	// reference implementation; must be set before injections start.
	Legacy bool

	pool *sim.RunPool

	// job is the job the golden run executed; Intervals traces it once.
	job    *device.Job
	ivOnce sync.Once
	iv     *StaticIntervals
	ivErr  error

	// Fork/converge tallies, updated atomically by concurrent injections.
	forkResumes, forkCyclesSaved      atomic.Int64
	convergeHits, convergeCyclesSaved atomic.Int64
	convergeDisabled                  atomic.Int64
}

// Golden runs the job fault-free. The run gets a generous cycle budget
// derived from the job's schedule-step budget so a pathological job (e.g. a
// kernel that spins forever) errors out instead of hanging: faulty runs are
// bounded by TimeoutFactor × golden cycles, but the golden run itself has no
// reference to bound against.
func Golden(job *device.Job, cfg gpu.Config) (*GoldenRun, error) {
	res := sim.Run(job, cfg, sim.Options{MaxCycles: goldenCycleBudget(job)})
	if err := vetGolden(res); err != nil {
		return nil, err
	}
	return &GoldenRun{Res: res, Cfg: cfg, job: job}, nil
}

// Intervals returns the static ACE-interval map of the golden run's job —
// the oracle behind Target.Prune and the static AVF bounds — tracing it
// with one fault-free run on first use. Safe for concurrent use.
func (g *GoldenRun) Intervals() (*StaticIntervals, error) {
	g.ivOnce.Do(func() {
		if g.job == nil {
			g.ivErr = errors.New("microfi: golden run has no job to trace")
			return
		}
		g.iv, g.ivErr = TraceStatic(g.job, g.Cfg)
	})
	return g.iv, g.ivErr
}

// Target selects what one injection experiment hits.
type Target struct {
	Structure gpu.Structure
	// Kernel restricts the injection cycle to that kernel's execution
	// windows ("" = the whole application).
	Kernel string
	// IncludeVote additionally includes the TMR voting kernel's windows —
	// the vote is part of the hardened kernel's workflow (Fig. 6 step 3).
	IncludeVote bool
	// Model is the fault planted at the injection cycle (nil = the paper's
	// transient single-bit flip, faultmodel.Transient{Width: 1}).
	Model faultmodel.Model
	// Prune classifies transient RF and shared-memory injections that land
	// in a provably dead interval of the golden run's static interval map
	// (GoldenRun.Intervals) as Masked without simulating them. Pruning is
	// sound only for one-shot single-site faults, so every other structure
	// and fault model runs unpruned.
	Prune bool
}

// model returns the target's fault model with nil meaning the default.
func (t Target) model() faultmodel.Model {
	if t.Model == nil {
		return faultmodel.Transient{Width: 1}
	}
	return t.Model
}

// VoteKernelName is the kernel name the TMR transform gives vote launches.
const VoteKernelName = "vote"

// spans returns the launch spans matching the target kernel.
func (t Target) spans(g *GoldenRun) []sim.LaunchSpan {
	var out []sim.LaunchSpan
	for _, s := range g.Res.Spans {
		if t.Kernel == "" || s.Kernel == t.Kernel || (t.IncludeVote && s.Kernel == VoteKernelName) {
			out = append(out, s)
		}
	}
	return out
}

// Windows returns the total cycle count of the target windows.
func (t Target) Windows(g *GoldenRun) int64 {
	var total int64
	for _, s := range t.spans(g) {
		total += s.End - s.Start
	}
	return total
}

// DF returns the derating factor for the target structure, cycle-weighted
// across the target kernel's launches (§II-B). Caches have DF = 1.
func (t Target) DF(g *GoldenRun) float64 {
	switch t.Structure {
	case gpu.RF, gpu.SMEM:
	default:
		return 1
	}
	var num, den float64
	for _, s := range t.spans(g) {
		c := float64(s.End - s.Start)
		den += c
		if t.Structure == gpu.RF {
			num += c * s.RFDeratingFactor(g.Cfg)
		} else {
			num += c * s.SmemDeratingFactor(g.Cfg)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// pickCycle draws a uniform cycle within the target windows.
func (t Target) pickCycle(g *GoldenRun, rng *rand.Rand) (int64, bool) {
	total := t.Windows(g)
	if total <= 0 {
		return 0, false
	}
	k := rng.Int63n(total)
	for _, s := range t.spans(g) {
		n := s.End - s.Start
		if k < n {
			return s.Start + k + 1, true // cycles are 1-based in the runner
		}
		k -= n
	}
	return 0, false
}

// Inject performs one injection experiment and classifies the outcome
// against golden. The rand stream is consumed in the same order for every
// model (cycle draw, then the model's site draws), so an experiment is a
// pure function of (job, target, seed) whatever accelerates it: checkpoint
// forks and convergence joins on a checkpointed golden run, and the
// interval prune when t.Prune is set. pruned reports a run classified from
// the interval map without simulating it.
//
// The prune is bit-identical to brute force: the faulty run is
// deterministic and identical to golden up to the injection cycle, the
// static allocation timeline replays the injector's site enumeration, and
// the draws (cycle, entry, bit) happen in the same order with the same
// bounds. A flip confined to one site that no live interval covers is never
// consumed before overwrite or deallocation, so the brute-force run would
// classify Masked with no control-flow effect. If the interval trace fails
// the run simply goes unpruned.
func Inject(job *device.Job, g *GoldenRun, t Target, rng *rand.Rand) (r faults.Result, pruned bool) {
	mdl := t.model()
	cycle, r, done := t.preflight(g, mdl, rng)
	if done {
		return r, false
	}
	arm := func(m *sim.Machine) (faultmodel.Applier, bool) { return mdl.Arm(m, t.Structure, rng) }
	if tr, ok := mdl.(faultmodel.Transient); ok && t.Prune && (t.Structure == gpu.RF || t.Structure == gpu.SMEM) {
		if si, err := g.Intervals(); err == nil {
			if arm, r, pruned = si.draw(t.Structure, cycle, tr.WordBits(), rng); pruned {
				return r, true
			}
		}
	}
	return injectRun(job, g, cycle, mdl.Persistent(), arm), false
}

// preflight runs the simulation-free prefix of an experiment: cycle
// selection within the target windows and the ECC screen, which keys on the
// model's per-word footprint. Control structures sit outside the
// ECC-indexed storage arrays and carry no code word, so they bypass it.
// done=true means the experiment classifies without a faulty run.
func (t Target) preflight(g *GoldenRun, mdl faultmodel.Model, rng *rand.Rand) (cycle int64, r faults.Result, done bool) {
	cycle, ok := t.pickCycle(g, rng)
	if !ok {
		// kernel never ran (e.g. zero shared memory usage): nothing to hit
		return 0, faults.Result{Outcome: faults.Masked, Detail: "empty injection window"}, true
	}
	// SEC-DED ECC on the target structure: single-bit upsets are corrected,
	// double-bit upsets are detected but uncorrectable. Wider bursts escape
	// the code and strike the array below.
	if wb := mdl.WordBits(); wb > 0 && !t.Structure.IsControl() && g.Cfg.ECC[t.Structure] {
		switch wb {
		case 1:
			// SEC-DED corrects a single defective bit per word on every read,
			// whether the upset is transient or a permanent stuck cell.
			return 0, faults.Result{Outcome: faults.Masked, Detail: "corrected by ECC"}, true
		case 2:
			return 0, faults.Result{Outcome: faults.DUE, Detail: "detected uncorrectable (ECC)"}, true
		}
	}
	return cycle, faults.Result{}, false
}

// armFunc plants a fault into the machine at the injection cycle. It
// reports whether a site was hit and, for a persistent fault, the applier
// that re-asserts it at the top of every later cycle.
type armFunc func(*sim.Machine) (faultmodel.Applier, bool)

// injectRun executes the faulty simulation and classifies it against
// golden. On a checkpointed golden run the faulty simulation forks from the
// nearest snapshot below the injection cycle and may join back to golden
// early — both bit-identical to simulating from cycle 0 (see
// checkpoint.go); joins are withheld for persistent faults.
func injectRun(job *device.Job, g *GoldenRun, cycle int64, persistent bool, arm armFunc) faults.Result {
	hit := false
	var applier faultmodel.Applier
	opts := sim.Options{
		MaxCycles: g.Res.Cycles * int64(g.Cfg.TimeoutFactor),
		AtCycle:   cycle,
		Legacy:    g.Legacy,
		OnCycle: func(m *sim.Machine) {
			applier, hit = arm(m)
		},
	}
	if persistent {
		opts.EachCycle = func(m *sim.Machine) {
			if applier != nil {
				applier(m)
			}
		}
	}
	g.accelerate(&opts, cycle, persistent)
	res := sim.Run(job, g.Cfg, opts)
	if res.Converged {
		return g.classifyConverged(res, hit)
	}
	return Classify(g, res, hit)
}

// Classify compares a (possibly faulty) run against the golden run.
func Classify(g *GoldenRun, res *sim.Result, injected bool) faults.Result {
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
		r := faults.Result{Outcome: faults.Masked, CtrlAffected: res.Cycles != g.Res.Cycles}
		if !injected {
			r.Detail = "no allocated entry at injection cycle"
		}
		return r
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
