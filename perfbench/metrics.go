package main

// metricDef names one printed metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run (--trace 0), as a user of the
// system sees them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"runs_per_s", "1/s"},
	{"point_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run (--trace 1). Counts and busy
// times are per pass over the workload; latencies are over every traced
// call. Layers a workload leaves idle print 0.
var perLayer = []metricDef{
	{"sim.golden_cycles", "cycles"},
	{"sim.cycles_per_s", "cycles/s"},
	{"microfi.inject_calls", "count"},
	{"microfi.inject_busy_s", "s"},
	{"microfi.inject_p50_us", "us"},
	{"microfi.inject_p99_us", "us"},
	{"microfi.fork_resumes", "count"},
	{"microfi.fork_cycles_saved", "cycles"},
	{"microfi.converge_hits", "count"},
	{"microfi.converge_ratio", "ratio"},
	{"microfi.converge_cycles_saved", "cycles"},
	{"microfi.golden_s", "s"},
	{"microfi.snapshots", "count"},
	{"microfi.snapshot_mb", "MiB"},
	{"microfi.evictions", "count"},
	{"ace.liveness_s", "s"},
	{"adaptive.pruned", "count"},
	{"adaptive.prune_ratio", "ratio"},
	{"softfi.golden_s", "s"},
	{"softfi.inject_calls", "count"},
	{"softfi.inject_busy_s", "s"},
	{"softfi.inject_p50_us", "us"},
	{"softfi.inject_p99_us", "us"},
	{"funcsim.dyn_instrs", "instrs"},
	{"funcsim.instrs_per_s", "instrs/s"},
	{"device.clone_us", "us"},
	{"device.image_mb", "MiB"},
	{"campaign.points", "count"},
	{"campaign.runs", "count"},
	{"campaign.busy_frac", "ratio"},
	{"service.submit_ms_p50", "ms"},
	{"service.submit_ms_p90", "ms"},
	{"service.notify_ms_p50", "ms"},
	{"service.notify_ms_p90", "ms"},
	{"fleet.lease_wait_ms_p50", "ms"},
	{"fleet.lease_wait_ms_p90", "ms"},
	{"fleet.lease_rtt_ms_p50", "ms"},
	{"fleet.lease_rtt_ms_p90", "ms"},
	{"fleet.report_rtt_ms_p50", "ms"},
	{"fleet.report_rtt_ms_p90", "ms"},
	{"fleet.empty_polls", "count"},
	{"fleet.leases_per_job", "ratio"},
	{"fleet.worker_busy_frac", "ratio"},
	{"fleet.expired", "count"},
	{"fleet.returned", "count"},
	{"fleet.dup_reports", "count"},
	{"client.http_errors", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_kb_per_run", "KiB"},
	{"trace.overhead_frac", "ratio"},
}

// unitOf returns the unit of a metric name ("" if unknown).
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
