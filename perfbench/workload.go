package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"

	"gpurel"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
	"gpurel/internal/softfi"
)

// runsPerPoint is n, the injections per campaign point. It is part of every
// reference tally, so changing it means recording the references again.
const runsPerPoint = 20

// Every workload runs the accelerated configuration that is bit-identical
// to brute force: auto-stride snapshots with convergence joins, liveness
// pruning of register-file runs, and no early stopping.
var (
	checkpoint = microfi.CheckpointSpec{Stride: microfi.AutoStride, Converge: true}
	sampling   = gpurel.SamplingPolicy{Prune: true}
)

var workloadNames = []string{"avf", "svf", "fleet"}

// workloadPoints lists the campaign points of a workload in run order.
//   - avf: µarch AVF of 23 kernels × 5 storage structures, plain and TMR (230).
//   - svf: SVF and SVF-LD of the 23 plain kernels, SVF of the 23 TMR kernels (69).
//   - fleet: the Figure 1 points, per app its 5 structures per kernel then
//     SVF per kernel, plain job only (115 + 23).
func workloadPoints(name string) ([]gpurel.PointSpec, error) {
	var pts []gpurel.PointSpec
	micro := func(app, k string, st gpu.Structure, hard bool) {
		pts = append(pts, gpurel.PointSpec{Layer: gpurel.LayerMicro, App: app, Kernel: k, Structure: st, Hardened: hard})
	}
	soft := func(app, k string, m softfi.Mode, hard bool) {
		pts = append(pts, gpurel.PointSpec{Layer: gpurel.LayerSoft, App: app, Kernel: k, Mode: m, Hardened: hard})
	}
	for _, a := range kernels.All() {
		switch name {
		case "avf":
			for _, k := range a.Kernels {
				for _, hard := range []bool{false, true} {
					for _, st := range gpu.Structures {
						micro(a.Name, k, st, hard)
					}
				}
			}
		case "svf":
			for _, k := range a.Kernels {
				soft(a.Name, k, softfi.SVF, false)
				soft(a.Name, k, softfi.SVFLD, false)
				soft(a.Name, k, softfi.SVF, true)
			}
		case "fleet":
			for _, k := range a.Kernels {
				for _, st := range gpu.Structures {
					micro(a.Name, k, st, false)
				}
			}
			for _, k := range a.Kernels {
				soft(a.Name, k, softfi.SVF, false)
			}
		default:
			return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
		}
	}
	return pts, nil
}

// pointID names a point in the reference file.
func pointID(p gpurel.PointSpec) string {
	job := "plain"
	if p.Hardened {
		job = "tmr"
	}
	if p.Layer == gpurel.LayerSoft {
		return fmt.Sprintf("soft|%s|%s|%s|%s", p.App, p.Kernel, p.Mode, job)
	}
	return fmt.Sprintf("micro|%s|%s|%s|%s", p.App, p.Kernel, p.Structure, job)
}

// apps returns the distinct applications of pts in first-use order.
func apps(pts []gpurel.PointSpec) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range pts {
		if !seen[p.App] {
			seen[p.App] = true
			out = append(out, p.App)
		}
	}
	return out
}

// newStudy returns a study in the benchmark configuration.
func newStudy(seed int64, workers int) *gpurel.Study {
	s := gpurel.NewStudy(runsPerPoint, seed)
	s.Checkpoint = checkpoint
	s.Sampling = &sampling
	s.Workers = workers
	s.Counters = &adaptive.Counters{}
	return s
}

// pointCall derives what Study.runPoint hands a RunPoint hook for p: the
// study's sampling and checkpoint defaults on the spec, and the study's
// sizing with the point's derived seed in the options.
func pointCall(p gpurel.PointSpec, seed int64, workers int) (gpurel.PointSpec, campaign.Options) {
	sp, ck := sampling, checkpoint
	p.Sampling, p.Checkpoint = &sp, &ck
	return p, campaign.Options{Runs: runsPerPoint, Seed: gpurel.PointSeed(seed, p), Workers: workers}
}

// executor runs one campaign point, with the signature of Study.RunPoint.
type executor func(p gpurel.PointSpec, opts campaign.Options) (campaign.Tally, error)

// cursor is the point the closed loop is running: one point is in flight at
// a time, so spans recorded by wrappers attach to it.
type cursor struct{ span, point atomic.Int64 }

// tracedExperiment wraps fn so every run records a span under the current
// point, named after the injector that executes it.
func tracedExperiment(rec *recorder, cur *cursor, layer gpurel.Layer, fn campaign.Experiment) campaign.Experiment {
	if rec == nil {
		return fn
	}
	name := "microfi.inject"
	if layer == gpurel.LayerSoft {
		name = "softfi.inject"
	}
	return func(run int, rng *rand.Rand) faults.Result {
		sp := rec.begin(name, cur.span.Load(), cur.point.Load())
		r := fn(run, rng)
		sp.end()
		return r
	}
}

// localExecutor executes points in-process exactly as Study.runPoint does
// without early stopping: Study.PointExperiment, then campaign.Run.
func localExecutor(s *gpurel.Study, rec *recorder, cur *cursor) executor {
	return func(p gpurel.PointSpec, opts campaign.Options) (campaign.Tally, error) {
		fn, err := s.PointExperiment(p)
		if err != nil {
			return campaign.Tally{}, err
		}
		return campaign.Run(opts, tracedExperiment(rec, cur, p.Layer, fn)), nil
	}
}

// warmStudy builds everything the study's points need before the first
// injection: golden runs of every app (Study.Eval) and, through
// Study.PointExperiment, the RF liveness maps the prune builds lazily.
func warmStudy(s *gpurel.Study, pts []gpurel.PointSpec, rec *recorder, parent int64) error {
	for _, app := range apps(pts) {
		sp := rec.begin("study.eval", parent, 0)
		_, err := s.Eval(app)
		sp.end()
		if err != nil {
			return err
		}
	}
	sp := rec.begin("study.liveness", parent, 0)
	defer sp.end()
	for _, p := range pts {
		q, _ := pointCall(p, 0, 0)
		if _, err := s.PointExperiment(q); err != nil {
			return fmt.Errorf("%s: %w", pointID(p), err)
		}
	}
	return nil
}

// exactCounts are the counts that depend only on the code, the seed and
// n: a pure speed-up leaves every one unchanged.
type exactCounts struct {
	GoldenCycles int64 `json:"sim.golden_cycles"`
	DynInstrs    int64 `json:"funcsim.dyn_instrs"`
	ForkResumes  int64 `json:"microfi.fork_resumes"`
	ConvergeHits int64 `json:"microfi.converge_hits"`
	Pruned       int64 `json:"adaptive.pruned"`
	Runs         int64 `json:"campaign.runs"`
}

// studyCounts sums the fork/converge and prune counters of studies.
type studyCounts struct {
	ck     microfi.CheckpointCounts
	pruned int64
}

func countStudies(ss []*gpurel.Study) studyCounts {
	var c studyCounts
	for _, s := range ss {
		c.ck.Add(s.CheckpointCounts())
		c.pruned += s.Counters.Pruned.Load()
	}
	return c
}

func (c studyCounts) sub(o studyCounts) studyCounts {
	d := c
	d.ck.ForkResumes -= o.ck.ForkResumes
	d.ck.ForkCyclesSaved -= o.ck.ForkCyclesSaved
	d.ck.ConvergeHits -= o.ck.ConvergeHits
	d.ck.ConvergeCyclesSaved -= o.ck.ConvergeCyclesSaved
	d.pruned -= o.pruned
	return d
}

// defaultWorkers is the campaign goroutine count: one per CPU.
func defaultWorkers() int { return runtime.NumCPU() }

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
