package service

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/microfi"
)

// Metrics holds the daemon's counters, exported in Prometheus text format
// at GET /metrics. Counters are cumulative for the process (a restart
// resets them; the checkpoint journals job state, not metrics).
type Metrics struct {
	start         time.Time
	jobsSubmitted atomic.Int64
	jobsResumed   atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	injections    atomic.Int64
	outcomes      [faults.NumOutcomes]atomic.Int64
	ctrlAffected  atomic.Int64
	chunks        atomic.Int64
	runsSaved     atomic.Int64

	// counters is the study-side sampling aggregate (prune hits, simulated
	// runs) shared via Config.Counters; nil when the source doesn't count.
	counters *adaptive.Counters
	// ckStats reads the study-side checkpoint fork-and-join aggregate via
	// Config.CheckpointStats; nil when the source doesn't checkpoint.
	ckStats func() microfi.CheckpointCounts
	// now is the injected clock (Config.Now), for uptime.
	now func() time.Time

	// collectors are extra exposition sections appended by subsystems that
	// ride on the same /metrics endpoint (the fleet coordinator's per-worker
	// counters).
	collMu     sync.Mutex
	collectors []func(io.Writer)
}

// AddCollector registers an extra exposition section rendered at the end of
// every /metrics scrape.
func (m *Metrics) AddCollector(fn func(io.Writer)) {
	m.collMu.Lock()
	m.collectors = append(m.collectors, fn)
	m.collMu.Unlock()
}

func newMetrics(counters *adaptive.Counters, now func() time.Time, ckStats func() microfi.CheckpointCounts) *Metrics {
	if now == nil {
		now = time.Now
	}
	return &Metrics{start: now(), counters: counters, ckStats: ckStats, now: now}
}

// addTally folds one completed chunk into the injection counters.
func (m *Metrics) addTally(t campaign.Tally) {
	m.injections.Add(int64(t.N))
	for o := faults.Outcome(0); o < faults.NumOutcomes; o++ {
		m.outcomes[o].Add(int64(t.Counts[o]))
	}
	m.ctrlAffected.Add(int64(t.CtrlAffected))
	m.chunks.Add(1)
}

// WritePrometheus renders the exposition text. gauges carries point-in-time
// values owned by the scheduler (current queue depths).
func (m *Metrics) WritePrometheus(w io.Writer, gauges map[string]int) {
	up := m.now().Sub(m.start).Seconds()
	inj := m.injections.Load()
	var rate float64
	if up > 0 {
		rate = float64(inj) / up
	}

	fmt.Fprintln(w, "# HELP gpureld_jobs_total Jobs by lifecycle event since process start.")
	fmt.Fprintln(w, "# TYPE gpureld_jobs_total counter")
	fmt.Fprintf(w, "gpureld_jobs_total{event=\"submitted\"} %d\n", m.jobsSubmitted.Load())
	fmt.Fprintf(w, "gpureld_jobs_total{event=\"resumed\"} %d\n", m.jobsResumed.Load())
	fmt.Fprintf(w, "gpureld_jobs_total{event=\"done\"} %d\n", m.jobsDone.Load())
	fmt.Fprintf(w, "gpureld_jobs_total{event=\"failed\"} %d\n", m.jobsFailed.Load())
	fmt.Fprintf(w, "gpureld_jobs_total{event=\"canceled\"} %d\n", m.jobsCanceled.Load())

	fmt.Fprintln(w, "# HELP gpureld_jobs Current jobs by state.")
	fmt.Fprintln(w, "# TYPE gpureld_jobs gauge")
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "gpureld_jobs{state=%q} %d\n", st, gauges[string(st)])
	}

	fmt.Fprintln(w, "# HELP gpureld_injections_total Fault injections executed.")
	fmt.Fprintln(w, "# TYPE gpureld_injections_total counter")
	fmt.Fprintf(w, "gpureld_injections_total %d\n", inj)

	fmt.Fprintln(w, "# HELP gpureld_outcomes_total Injection outcomes by class (§II-A).")
	fmt.Fprintln(w, "# TYPE gpureld_outcomes_total counter")
	for o := faults.Outcome(0); o < faults.NumOutcomes; o++ {
		fmt.Fprintf(w, "gpureld_outcomes_total{outcome=%q} %d\n",
			strings.ToLower(o.String()), m.outcomes[o].Load())
	}
	fmt.Fprintf(w, "gpureld_ctrl_affected_total %d\n", m.ctrlAffected.Load())

	fmt.Fprintln(w, "# HELP gpureld_chunks_total Checkpointable run-range chunks completed.")
	fmt.Fprintln(w, "# TYPE gpureld_chunks_total counter")
	fmt.Fprintf(w, "gpureld_chunks_total %d\n", m.chunks.Load())

	fmt.Fprintln(w, "# HELP gpureld_adaptive_runs_saved_total Runs skipped by adaptive early stopping.")
	fmt.Fprintln(w, "# TYPE gpureld_adaptive_runs_saved_total counter")
	fmt.Fprintf(w, "gpureld_adaptive_runs_saved_total %d\n", m.runsSaved.Load())

	var pruneHits, simulated int64
	if m.counters != nil {
		pruneHits = m.counters.Pruned.Load()
		simulated = m.counters.Simulated.Load()
	}
	fmt.Fprintln(w, "# HELP gpureld_prune_hits_total Injections classified analytically from the static interval map.")
	fmt.Fprintln(w, "# TYPE gpureld_prune_hits_total counter")
	fmt.Fprintf(w, "gpureld_prune_hits_total %d\n", pruneHits)

	fmt.Fprintln(w, "# HELP gpureld_simulated_runs_total Injections that went through the simulator.")
	fmt.Fprintln(w, "# TYPE gpureld_simulated_runs_total counter")
	fmt.Fprintf(w, "gpureld_simulated_runs_total %d\n", simulated)

	var ck microfi.CheckpointCounts
	if m.ckStats != nil {
		ck = m.ckStats()
	}
	fmt.Fprintln(w, "# HELP gpureld_fork_resumes_total Faulty runs resumed from a golden checkpoint.")
	fmt.Fprintln(w, "# TYPE gpureld_fork_resumes_total counter")
	fmt.Fprintf(w, "gpureld_fork_resumes_total %d\n", ck.ForkResumes)

	fmt.Fprintln(w, "# HELP gpureld_fork_cycles_saved_total Golden-prefix cycles skipped by checkpoint resumes.")
	fmt.Fprintln(w, "# TYPE gpureld_fork_cycles_saved_total counter")
	fmt.Fprintf(w, "gpureld_fork_cycles_saved_total %d\n", ck.ForkCyclesSaved)

	fmt.Fprintln(w, "# HELP gpureld_converge_hits_total Faulty runs that joined back to the golden run early.")
	fmt.Fprintln(w, "# TYPE gpureld_converge_hits_total counter")
	fmt.Fprintf(w, "gpureld_converge_hits_total %d\n", ck.ConvergeHits)

	fmt.Fprintln(w, "# HELP gpureld_converge_cycles_saved_total Golden-suffix cycles skipped by convergence joins.")
	fmt.Fprintln(w, "# TYPE gpureld_converge_cycles_saved_total counter")
	fmt.Fprintf(w, "gpureld_converge_cycles_saved_total %d\n", ck.ConvergeCyclesSaved)

	fmt.Fprintln(w, "# HELP gpureld_checkpoint_snapshots Machine snapshots retained across golden runs.")
	fmt.Fprintln(w, "# TYPE gpureld_checkpoint_snapshots gauge")
	fmt.Fprintf(w, "gpureld_checkpoint_snapshots %d\n", ck.Snapshots)

	fmt.Fprintln(w, "# HELP gpureld_checkpoint_bytes Memory retained by machine snapshots.")
	fmt.Fprintln(w, "# TYPE gpureld_checkpoint_bytes gauge")
	fmt.Fprintf(w, "gpureld_checkpoint_bytes %d\n", ck.SnapshotBytes)

	fmt.Fprintln(w, "# HELP gpureld_checkpoint_evictions_total Snapshots evicted by budget-driven stride widening.")
	fmt.Fprintln(w, "# TYPE gpureld_checkpoint_evictions_total counter")
	fmt.Fprintf(w, "gpureld_checkpoint_evictions_total %d\n", ck.Evictions)

	fmt.Fprintln(w, "# HELP gpureld_injections_per_second Mean injection throughput since start.")
	fmt.Fprintln(w, "# TYPE gpureld_injections_per_second gauge")
	fmt.Fprintf(w, "gpureld_injections_per_second %.3f\n", rate)

	fmt.Fprintln(w, "# HELP gpureld_uptime_seconds Process uptime.")
	fmt.Fprintln(w, "# TYPE gpureld_uptime_seconds gauge")
	fmt.Fprintf(w, "gpureld_uptime_seconds %.3f\n", up)

	m.collMu.Lock()
	colls := make([]func(io.Writer), len(m.collectors))
	copy(colls, m.collectors)
	m.collMu.Unlock()
	for _, fn := range colls {
		fn(w)
	}
}
