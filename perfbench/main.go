// Command perfbench is the repository benchmark. It runs one workload of
// real paper campaigns through the public gpurel.Study API — in-process, or
// through the gpureld coordinator and two fleet workers over loopback HTTP —
// checks every tally against recorded references, and prints one JSON
// result line. See README.md in this directory.
//
//	bash perfbench/run.sh --workload avf --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"gpurel"
)

// processStart is as close to process start as Go code gets.
var processStart = time.Now()

// setupReps is how often a timed run sets the workload up; setup_s is the
// median, since one set-up is too short to time steadily.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	refPath  string
	outDir   string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var traced int
	var record string
	flag.StringVar(&cfg.workload, "workload", "avf", "workload: avf, svf or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "base seed of every campaign")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "campaign time to measure; whole passes over the workload run until it is reached")
	flag.IntVar(&traced, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.refPath, "ref", "perfbench/reference.json", "reference tally file")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for traces, journals and the exact-count cache")
	flag.StringVar(&record, "record", "", "record reference tallies for a seed range such as 0-15 into -ref, then exit")
	flag.Parse()
	cfg.trace = traced == 1
	say := func(s string) { fmt.Fprintln(os.Stderr, "perfbench:", s) }

	if record != "" {
		seeds, err := parseSeeds(record)
		if err == nil {
			err = recordReference(cfg.refPath, seeds, say)
		}
		if err != nil {
			say(err.Error())
			os.Exit(1)
		}
		return
	}
	out, info, err := run(cfg, say)
	if err != nil {
		say(err.Error())
		os.Exit(1)
	}
	fmt.Println(machineLine())
	for _, l := range info {
		fmt.Println("# " + l)
	}
	line, err := json.Marshal(out)
	if err != nil {
		say(err.Error())
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// parseSeeds reads "a-b" or a single seed.
func parseSeeds(s string) ([]int64, error) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		hi = lo
	}
	a, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad seed range %q", s)
	}
	b, err := strconv.ParseInt(hi, 10, 64)
	if err != nil || b < a {
		return nil, fmt.Errorf("bad seed range %q", s)
	}
	var out []int64
	for x := a; x <= b; x++ {
		out = append(out, x)
	}
	return out, nil
}

// env is one set-up workload: the studies that hold its golden state and
// the executor that runs its points.
type env struct {
	studies []*gpurel.Study
	exec    executor
	fleet   *fleetEnv
	workers int // campaign goroutines across the executor
}

func (e *env) close() error {
	if e.fleet != nil {
		return e.fleet.close()
	}
	return nil
}

func setup(cfg config, pts []gpurel.PointSpec, rec *recorder, cur *cursor, log *httpLog, parent int64) (*env, error) {
	if cfg.workload == "fleet" {
		f, err := startFleet(pts, cfg.seed, filepath.Join(cfg.outDir, "tmp"), rec, cur, log, parent)
		if err != nil {
			return nil, err
		}
		return &env{studies: f.studies, exec: f.submit, fleet: f, workers: fleetWorkers}, nil
	}
	s := newStudy(cfg.seed, defaultWorkers())
	if err := warmStudy(s, pts, rec, parent); err != nil {
		return nil, err
	}
	return &env{studies: []*gpurel.Study{s}, exec: localExecutor(s, rec, cur), workers: defaultWorkers()}, nil
}

// pass is one run over every point of the workload.
type pass struct {
	dur     time.Duration
	lat     []float64 // per-point latency, ms
	windows [][2]time.Time
	runs    int64
	counts  studyCounts
	failed  int
	peakMB  float64 // the process's peak RSS when the pass ended
}

// runPasses runs whole passes until the campaign has lasted d (at least one
// pass). Points run one at a time — a closed loop with one client.
func runPasses(e *env, pts []gpurel.PointSpec, cfg config, d time.Duration, chk *checker, rec *recorder, cur *cursor, parent int64, errs *[]string) []pass {
	var out []pass
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		psp := rec.begin("pass", parent, 0)
		before := countStudies(e.studies)
		t0 := time.Now()
		var p pass
		for _, pt := range pts {
			q, opts := pointCall(pt, cfg.seed, e.workers)
			n := cur.point.Add(1)
			sp := rec.begin("point", psp.id, n)
			cur.span.Store(sp.id)
			ts := time.Now()
			tl, err := e.exec(q, opts)
			te := time.Now()
			sp.end()
			p.lat = append(p.lat, float64(te.Sub(ts))/float64(time.Millisecond))
			p.windows = append(p.windows, [2]time.Time{ts, te})
			p.runs += int64(tl.N)
			if err := chk.check(pointID(pt), tl, err); err != nil {
				p.failed++
				if len(*errs) < 10 {
					*errs = append(*errs, err.Error())
				}
			}
		}
		p.dur = time.Since(t0)
		psp.end()
		p.peakMB = peakRSSMB()
		p.counts = countStudies(e.studies).sub(before)
		if len(out) > 0 && p.counts.exact() != out[0].counts.exact() {
			*errs = append(*errs, fmt.Sprintf("pass %d counts %+v drifted from pass 1 %+v", len(out)+1, p.counts.exact(), out[0].counts.exact()))
			p.failed++
		}
		out = append(out, p)
	}
	cur.span.Store(0)
	return out
}

// exact are the per-pass counters that must repeat exactly.
func (c studyCounts) exact() [3]int64 {
	return [3]int64{c.ck.ForkResumes, c.ck.ConvergeHits, c.pruned}
}

func campaignTotals(ps []pass) (dur time.Duration, runs int64, lat []float64, failed int) {
	for _, p := range ps {
		dur += p.dur
		runs += p.runs
		lat = append(lat, p.lat...)
		failed += p.failed
	}
	return
}

// run performs one timed or traced run and returns its result and the
// human-readable lines printed before it.
func run(cfg config, say func(string)) (out output, info []string, err error) {
	pts, err := workloadPoints(cfg.workload)
	if err != nil {
		return out, nil, err
	}
	if cfg.seconds <= 0 {
		return out, nil, fmt.Errorf("--seconds must be positive")
	}
	ref, err := loadReference(cfg.refPath)
	if err != nil {
		return out, nil, err
	}
	refTallies, err := ref.forSeed(cfg.seed)
	if err != nil {
		return out, nil, err
	}
	if refTallies == nil {
		info = append(info, fmt.Sprintf("no reference tallies for seed %d at n=%d: checking errors, run counts and pass-to-pass repeats only", cfg.seed, runsPerPoint))
	} else {
		info = append(info, fmt.Sprintf("reference tallies for seed %d at n=%d", cfg.seed, runsPerPoint))
	}
	if err := os.MkdirAll(filepath.Join(cfg.outDir, "tmp"), 0o755); err != nil {
		return out, nil, err
	}
	chk := newChecker(refTallies)
	var errs []string
	defer func() {
		for _, e := range errs {
			info = append(info, "FAIL "+e)
		}
	}()
	if cfg.trace {
		out, more, err := tracedRun(cfg, pts, chk, &errs, say)
		return out, append(info, more...), err
	}

	cur := &cursor{}
	var setups []float64
	var e *env
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		if e, err = setup(cfg, pts, nil, cur, nil, 0); err != nil {
			return out, info, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < setupReps-1 {
			if err := e.close(); err != nil {
				return out, info, err
			}
			e = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	passes := runPasses(e, pts, cfg, secondsDur(cfg.seconds), chk, nil, cur, 0, &errs)
	if err := e.close(); err != nil {
		return out, info, err
	}
	dur, runs, lat, failed := campaignTotals(passes)
	setupS := median(setups)
	attempted := len(pts) * len(passes)
	out = output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	put := func(name string, v float64) { out.Metrics[name] = metricValue{v, unitOf(name)} }
	put("setup_s", setupS)
	put("wall_s", setupS+dur.Seconds()/float64(len(passes)))
	put("runs_per_s", float64(runs)/dur.Seconds())
	put("point_p90_ms", percentile(lat, 90))
	put("peak_rss_mb", passes[0].peakMB)
	info = append(info,
		fmt.Sprintf("workload %s: %d points × n=%d, %d pass(es), %d point samples, point p50 %.3f ms, p75 %.3f ms (p90 leaves %d beyond; highest percentile with ≥%d beyond: p%g)",
			cfg.workload, len(pts), runsPerPoint, len(passes), len(lat), percentile(lat, 50), percentile(lat, 75), tail(len(lat), 90), minTail, highestPercentile(len(lat), []float64{50, 75, 90, 95, 99})),
		fmt.Sprintf("set-up reps %v s, passes %v", setups, passDurations(passes)),
		fmt.Sprintf("failed_frac %g (%d of %d points)", ratio(float64(failed), float64(attempted)), failed, attempted))
	return out, info, nil
}

func passDurations(ps []pass) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.dur.Round(time.Millisecond).String())
	}
	return out
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// peakRSSMB reads the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// machineLine records what the figures were measured on.
func machineLine() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("# machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// runtimeSample reads the GC CPU time, total CPU time and cumulative heap
// allocation of the process.
func runtimeSample() (gcCPU, totalCPU, allocs float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// checkExact compares the exact counts with those an earlier traced run of
// the same checkout stored for this workload and seed, storing them when
// none exist. A difference means a simulated statistic is not repeatable.
func checkExact(dir, workload string, seed int64, got exactCounts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, _ := json.Marshal(got)
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var want exactCounts
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if got != want {
		return fmt.Errorf("exact counts drifted from an earlier traced run: got %+v, had %+v", got, want)
	}
	return nil
}
