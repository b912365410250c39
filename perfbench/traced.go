package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"gpurel"
	"gpurel/internal/fleet"
	"gpurel/internal/gpu"
)

// tracedRun sets the workload up once with spans on, runs untraced passes
// for the first half of the time (the baseline of trace.overhead_frac and
// the runtime figures), then traced passes for the rest, and derives the
// per-layer metrics from the spans and from the layers' own counters.
func tracedRun(cfg config, pts []gpurel.PointSpec, chk *checker, errs *[]string, say func(string)) (out output, info []string, err error) {
	rec := newRecorder()
	rec.on.Store(true)
	cur := &cursor{}
	log := &httpLog{}
	wsp := rec.begin("workload", 0, 0)

	psp := rec.begin("probe", wsp.id, 0)
	pr, err := probeLayers(apps(pts), gpu.Volta(), rec, psp.id)
	psp.end()
	if err != nil {
		return out, nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()

	ssp := rec.begin("setup", wsp.id, 0)
	e, err := setup(cfg, pts, rec, cur, log, ssp.id)
	ssp.end()
	if err != nil {
		return out, nil, err
	}
	inv := countStudies(e.studies).ck

	rec.on.Store(false)
	half := secondsDur(cfg.seconds / 2)
	g0, c0, a0 := runtimeSample()
	up := runPasses(e, pts, cfg, half, chk, rec, cur, 0, errs)
	g1, c1, a1 := runtimeSample()
	uDur, uRuns, _, uFailed := campaignTotals(up)

	var stats0, stats1 fleet.Stats
	if e.fleet != nil {
		stats0 = e.fleet.coord.Stats()
	}
	rec.on.Store(true)
	tp := runPasses(e, pts, cfg, max(secondsDur(cfg.seconds)-uDur, 0), chk, rec, cur, wsp.id, errs)
	rec.on.Store(false)
	var httpErrors int64
	if e.fleet != nil {
		stats1 = e.fleet.coord.Stats()
		httpErrors = e.fleet.httpErrors()
	}
	if err := e.close(); err != nil {
		return out, nil, err
	}
	wsp.end()
	tDur, tRuns, _, tFailed := campaignTotals(tp)
	failed := uFailed + tFailed
	if up[0].counts.exact() != tp[0].counts.exact() {
		*errs = append(*errs, fmt.Sprintf("traced counts %+v drifted from untraced %+v", tp[0].counts.exact(), up[0].counts.exact()))
		failed++
	}
	exact := exactCounts{
		GoldenCycles: pr.simCycles,
		DynInstrs:    pr.funcInstrs,
		ForkResumes:  tp[0].counts.ck.ForkResumes,
		ConvergeHits: tp[0].counts.ck.ConvergeHits,
		Pruned:       tp[0].counts.pruned,
		Runs:         tp[0].runs,
	}
	if err := checkExact(filepath.Join(cfg.outDir, "exact"), cfg.workload, cfg.seed, exact); err != nil {
		*errs = append(*errs, err.Error())
		failed++
	}

	spans := rec.snapshot()
	tracePath := filepath.Join(cfg.outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return out, nil, err
	}
	if err := rec.write(tracePath); err != nil {
		return out, nil, err
	}
	say(fmt.Sprintf("%d spans written to %s", len(spans), tracePath))
	say(selfTimeReport(spans))

	durs := map[string][]float64{} // µs
	for _, sp := range spans {
		durs[sp.Name] = append(durs[sp.Name], float64(sp.dur())/float64(time.Microsecond))
	}
	n := float64(len(tp))
	micro, soft := durs["microfi.inject"], durs["softfi.inject"]
	attempted := len(pts) * (len(up) + len(tp))
	out = output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	put := func(name string, v float64) { out.Metrics[name] = metricValue{v, unitOf(name)} }
	c := tp[0].counts.ck

	put("sim.golden_cycles", float64(pr.simCycles))
	put("sim.cycles_per_s", ratio(float64(pr.simCycles), pr.simTime.Seconds()))
	put("microfi.inject_calls", float64(len(micro))/n)
	put("microfi.inject_busy_s", sum(micro)/1e6/n)
	put("microfi.inject_p50_us", percentile(micro, 50))
	put("microfi.inject_p99_us", percentile(micro, 99))
	put("microfi.fork_resumes", float64(c.ForkResumes))
	put("microfi.fork_cycles_saved", float64(c.ForkCyclesSaved))
	put("microfi.converge_hits", float64(c.ConvergeHits))
	put("microfi.converge_ratio", ratio(float64(c.ConvergeHits), float64(c.ForkResumes)))
	put("microfi.converge_cycles_saved", float64(c.ConvergeCyclesSaved))
	put("microfi.golden_s", pr.microGolden.Seconds())
	put("microfi.snapshots", float64(inv.Snapshots))
	put("microfi.snapshot_mb", float64(inv.SnapshotBytes)/(1<<20))
	put("microfi.evictions", float64(inv.Evictions))
	put("ace.liveness_s", sum(durs["study.liveness"])/1e6)
	put("adaptive.pruned", float64(tp[0].counts.pruned))
	put("adaptive.prune_ratio", ratio(float64(tp[0].counts.pruned), float64(len(micro))/n))
	put("softfi.golden_s", pr.softGolden.Seconds())
	put("softfi.inject_calls", float64(len(soft))/n)
	put("softfi.inject_busy_s", sum(soft)/1e6/n)
	put("softfi.inject_p50_us", percentile(soft, 50))
	put("softfi.inject_p99_us", percentile(soft, 99))
	put("funcsim.dyn_instrs", float64(pr.funcInstrs))
	put("funcsim.instrs_per_s", ratio(float64(pr.funcInstrs), pr.funcTime.Seconds()))
	put("device.clone_us", ratio(float64(pr.cloneTime)/float64(time.Microsecond), float64(pr.clones)))
	put("device.image_mb", ratio(float64(pr.imageBytes)/(1<<20), float64(pr.jobs)))
	put("campaign.points", float64(len(pts)))
	put("campaign.runs", float64(tp[0].runs))
	put("campaign.busy_frac", ratio((sum(micro)+sum(soft))/1e6, tDur.Seconds()*float64(e.workers)))
	fleetFigures(log.snapshot(), tp, tDur, e.workers, put)
	put("fleet.expired", float64(stats1.Expired-stats0.Expired)/n)
	put("fleet.returned", float64(stats1.Returned-stats0.Returned)/n)
	put("fleet.dup_reports", float64(stats1.DupReports-stats0.DupReports)/n)
	put("client.http_errors", float64(httpErrors))
	put("runtime.gc_cpu_frac", ratio(g1-g0, c1-c0))
	put("runtime.alloc_kb_per_run", ratio((a1-a0)/1024, float64(uRuns)))
	put("trace.overhead_frac", 1-ratio(float64(tRuns)/tDur.Seconds(), float64(uRuns)/uDur.Seconds()))

	info = append(info,
		fmt.Sprintf("workload %s: %d untraced + %d traced pass(es) of %d points × n=%d", cfg.workload, len(up), len(tp), len(pts), runsPerPoint),
		fmt.Sprintf("exact counts %+v", exact))
	return out, info, nil
}

// fleetFigures derives the service and fleet metrics from the HTTP calls of
// the traced passes. One job is in flight at a time, so every call inside a
// point's window belongs to that point's job.
func fleetFigures(calls []httpCall, passes []pass, campaign time.Duration, workers int, put func(string, float64)) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	sort.Slice(calls, func(i, j int) bool { return calls[i].end.Before(calls[j].end) })
	var submit, leaseRTT, reportRTT, wait, notify []float64
	var granted, empty float64
	for _, c := range calls {
		switch {
		case c.route == "submit":
			submit = append(submit, ms(c.end.Sub(c.start)))
		case c.route == "lease" && c.status == 200:
			granted++
			leaseRTT = append(leaseRTT, ms(c.end.Sub(c.start)))
		case c.route == "lease" && c.status == 204:
			empty++
		case c.route == "report":
			reportRTT = append(reportRTT, ms(c.end.Sub(c.start)))
		}
	}
	var jobs float64
	var last time.Time
	for _, p := range passes {
		for _, w := range p.windows {
			jobs++
			last = w[1]
			var firstLease, lastReport time.Time
			for _, c := range calls {
				if c.end.Before(w[0]) || c.end.After(w[1]) {
					continue
				}
				if c.route == "lease" && c.status == 200 && firstLease.IsZero() {
					firstLease = c.end
				}
				if c.route == "report" {
					lastReport = c.end
				}
			}
			if !firstLease.IsZero() {
				wait = append(wait, ms(firstLease.Sub(w[0])))
			}
			if !lastReport.IsZero() {
				notify = append(notify, ms(w[1].Sub(lastReport)))
			}
		}
	}
	// A worker is busy from a granted lease until it asks for the next one.
	busy := map[string]time.Duration{}
	held := map[string]time.Time{}
	byStart := append([]httpCall(nil), calls...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].start.Before(byStart[j].start) })
	for _, c := range byStart {
		if c.route != "lease" {
			continue
		}
		if t, ok := held[c.who]; ok {
			busy[c.who] += c.start.Sub(t)
			delete(held, c.who)
		}
		if c.status == 200 {
			held[c.who] = c.end
		}
	}
	for who, t := range held {
		if last.After(t) {
			busy[who] += last.Sub(t)
		}
	}
	var busySum time.Duration
	for _, d := range busy {
		busySum += d
	}
	n := float64(len(passes))
	put("service.submit_ms_p50", percentile(submit, 50))
	put("service.submit_ms_p90", percentile(submit, 90))
	put("service.notify_ms_p50", percentile(notify, 50))
	put("service.notify_ms_p90", percentile(notify, 90))
	put("fleet.lease_wait_ms_p50", percentile(wait, 50))
	put("fleet.lease_wait_ms_p90", percentile(wait, 90))
	put("fleet.lease_rtt_ms_p50", percentile(leaseRTT, 50))
	put("fleet.lease_rtt_ms_p90", percentile(leaseRTT, 90))
	put("fleet.report_rtt_ms_p50", percentile(reportRTT, 50))
	put("fleet.report_rtt_ms_p90", percentile(reportRTT, 90))
	put("fleet.empty_polls", empty/n)
	put("fleet.leases_per_job", ratio(granted, jobs))
	put("fleet.worker_busy_frac", ratio(busySum.Seconds(), campaign.Seconds()*float64(workers)))
}
