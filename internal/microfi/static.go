package microfi

import (
	"fmt"
	"math/rand"

	"gpurel/internal/device"
	"gpurel/internal/faultmodel"
	"gpurel/internal/faults"
	"gpurel/internal/flow"
	"gpurel/internal/gpu"
	"gpurel/internal/sim"
)

// The Recorder must keep implementing the scheduler-trace shape the
// simulator exports; flow cannot import sim, so the structural contract is
// pinned here.
var _ sim.SchedTracer = (*flow.Recorder)(nil)

// StaticIntervals is the static ACE-interval map of one job: the flow
// interval engine's per-site dead/live intervals over the deterministic
// scheduled trace, plus the launch spans needed to scope queries to a
// kernel. Computed once per golden run by GoldenRun.Intervals (one
// fault-free run through TraceStatic) and shared by every injection
// thereafter.
type StaticIntervals struct {
	IV     *flow.Intervals
	Spans  []sim.LaunchSpan
	Cycles int64
}

// TraceStatic runs the job fault-free with the flow interval recorder
// attached and returns the finalized static interval map.
func TraceStatic(job *device.Job, cfg gpu.Config) (*StaticIntervals, error) {
	rec := flow.NewRecorder()
	res := sim.Run(job, cfg, sim.Options{SchedTrace: rec})
	if res.Err != nil {
		return nil, fmt.Errorf("microfi: static interval trace failed: %w", res.Err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("microfi: static interval trace timed out")
	}
	return &StaticIntervals{IV: rec.Finalize(res.Cycles), Spans: res.Spans, Cycles: res.Cycles}, nil
}

// Bounds returns the static AVF bracket for one structure over the
// injection windows of the named kernel (every launch when kernel is "").
// RF and SMEM are derived from the interval map; caches and control state
// are outside the engine's reach and return the trivial unsupported [0, 1]
// bracket.
func (si *StaticIntervals) Bounds(st gpu.Structure, kernel string) flow.Bounds {
	var ws []flow.Window
	for _, s := range si.Spans {
		if kernel == "" || s.Kernel == kernel {
			ws = append(ws, flow.Window{Start: s.Start, End: s.End})
		}
	}
	switch st {
	case gpu.RF:
		return si.IV.RFBounds(ws)
	case gpu.SMEM:
		return si.IV.SmemBounds(ws)
	}
	return flow.Bounds{Supported: false, Lower: 0, Upper: 1}
}

// draw replays the transient model's site draw (the
// faultmodel.pickAllocated enumeration: SMs in index order, blocks in CTA
// placement order, then entry and bit) against the static allocation
// timeline of structure st (RF or SMEM) at the injection cycle. dead
// reports a run the brute-force injector would classify as r — Masked, with
// no control-flow effect — because nothing is allocated or the drawn site
// is outside every live interval. Otherwise arm plants exactly the flip the
// transient model would have planted at the drawn site.
func (si *StaticIntervals) draw(st gpu.Structure, cycle int64, width int, rng *rand.Rand) (arm armFunc, r faults.Result, dead bool) {
	blocksAt, live, bits := si.IV.RFBlocksAt, si.IV.LiveRF, 32
	if st == gpu.SMEM {
		blocksAt, live, bits = si.IV.SmemBlocksAt, si.IV.LiveSmem, 8
	}
	var (
		scratch [8]flow.Blk
		smOf    []int
		total   int
	)
	blocks := scratch[:0]
	for sm := 0; sm < si.IV.NumSMs(); sm++ {
		n := len(blocks)
		blocks = blocksAt(sm, cycle, blocks)
		for range blocks[n:] {
			smOf = append(smOf, sm)
		}
	}
	for _, b := range blocks {
		total += b.Size
	}
	if total == 0 {
		// The brute-force run would simulate, find nothing allocated, and
		// classify the unperturbed (hence golden-identical) run as Masked.
		return nil, faults.Result{Outcome: faults.Masked, Detail: "no allocated entry at injection cycle"}, true
	}
	k := rng.Intn(total)
	bit := uint(rng.Intn(bits))
	for i, b := range blocks {
		if k < b.Size {
			sm, idx := smOf[i], b.Base+k
			if !live(sm, idx, cycle) {
				// Provably dead interval: the corrupted value is never consumed.
				return nil, faults.Result{Outcome: faults.Masked}, true
			}
			return func(m *sim.Machine) (faultmodel.Applier, bool) {
				s := m.SMs[sm]
				for w := 0; w < width; w++ {
					if st == gpu.SMEM {
						s.Smem[idx] ^= 1 << ((bit + uint(w)) % 8)
					} else {
						s.RF[idx] ^= 1 << ((bit + uint(w)) % 32)
					}
				}
				if st == gpu.SMEM {
					s.MarkSmem(idx)
				} else {
					s.MarkRF(idx)
				}
				return nil, true
			}, faults.Result{}, false
		}
		k -= b.Size
	}
	// Unreachable: k < total = Σ sizes.
	panic("microfi: site selection overran the static allocation timeline")
}
