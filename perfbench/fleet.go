package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpurel"
	"gpurel/client"
	"gpurel/internal/campaign"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

// fleetWorkers is the worker count of the fleet workload; each worker runs
// one campaign goroutine, like one single-core gpureld -worker process.
const fleetWorkers = 2

// fleetEnv is an in-process gpureld that only coordinates — scheduler with
// local execution off, coordinator and v1 server on loopback, both journals
// on — plus two fleet workers, each with its own study, and one submitting
// client. Every setting not named here keeps its library default.
type fleetEnv struct {
	dir     string
	sched   *service.Scheduler
	coord   *fleet.Coordinator
	srv     *http.Server
	served  chan error
	studies []*gpurel.Study
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	werrs   []error
	hooks   []*tracedTransport
	submit  executor
}

// startFleet brings the fleet up and warms both workers' studies for pts in
// parallel, as two worker processes would. rec and log may be nil.
func startFleet(pts []gpurel.PointSpec, seed int64, tmpRoot string, rec *recorder, cur *cursor, log *httpLog, parent int64) (_ *fleetEnv, err error) {
	f := &fleetEnv{served: make(chan error, 1)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.dir, err = os.MkdirTemp(tmpRoot, "fleet-"); err != nil {
		return f, err
	}
	sp := rec.begin("fleet.coordinator", parent, 0)
	// The coordinator's own source never runs with local execution off.
	f.sched, err = service.NewScheduler(service.Config{
		Source:           service.NewStudySource(gpurel.NewStudy(0, seed)),
		DisableLocalExec: true,
		CheckpointPath:   filepath.Join(f.dir, "sched.json"),
	})
	if err != nil {
		return f, err
	}
	f.coord, err = fleet.NewCoordinator(f.sched, fleet.CoordinatorConfig{JournalPath: filepath.Join(f.dir, "fleet.json")})
	if err != nil {
		return f, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, err
	}
	f.srv = &http.Server{Handler: service.NewServer(f.sched).Handler(f.coord.Mount)}
	go func() { f.served <- f.srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	sp.end()

	f.studies = make([]*gpurel.Study, fleetWorkers)
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i := range f.studies {
		f.studies[i] = newStudy(seed, 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := rec.begin("fleet.worker_warm", parent, 0)
			errs[i] = warmStudy(f.studies[i], pts, rec, sp.id)
			sp.end()
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return f, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.werrs = make([]error, fleetWorkers)
	for i, s := range f.studies {
		id := fmt.Sprintf("w%d", i+1)
		tr := newTracedTransport(id, rec, cur, log)
		f.hooks = append(f.hooks, tr)
		src := tracedSource(service.NewStudySource(s), rec, cur)
		c := client.New(url)
		c.HTTP = &http.Client{Transport: tr}
		w, err := fleet.NewWorker(fleet.WorkerConfig{ID: id, Client: c, Source: src, Workers: 1})
		if err != nil {
			return f, err
		}
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			f.werrs[i] = w.Run(ctx)
		}(i)
	}
	tr := newTracedTransport("submit", rec, cur, log)
	f.hooks = append(f.hooks, tr)
	c := client.New(url)
	c.HTTP = &http.Client{Transport: tr}
	f.submit = c.RunPoint(ctx)
	return f, nil
}

// tracedSource wraps a worker's SourceFunc so every run it executes records
// a span under the point in flight.
func tracedSource(src service.SourceFunc, rec *recorder, cur *cursor) service.SourceFunc {
	return func(spec service.JobSpec) (campaign.Experiment, error) {
		sp := rec.begin("worker.source", cur.span.Load(), cur.point.Load())
		fn, err := src(spec)
		sp.end()
		if err != nil {
			return nil, err
		}
		return tracedExperiment(rec, cur, gpurel.Layer(spec.Layer), fn), nil
	}
}

// httpErrors counts failed or refused requests of every client.
func (f *fleetEnv) httpErrors() int64 {
	var n int64
	for _, h := range f.hooks {
		n += h.errors.Load()
	}
	return n
}

// close stops the workers, drains the coordinator and scheduler, shuts the
// server down and removes the journals. It returns any worker or server
// error.
func (f *fleetEnv) close() error {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	if f.coord != nil {
		f.coord.Close()
	}
	if f.sched != nil {
		f.sched.Close()
	}
	var err error
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = f.srv.Shutdown(ctx)
		cancel()
		if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	for _, h := range f.hooks {
		h.base.CloseIdleConnections()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	return errors.Join(append(f.werrs, err)...)
}

// httpCall is one request a client made.
type httpCall struct {
	who, route string
	status     int
	start, end time.Time
}

// httpLog collects the calls of every traced client while tracing is on.
type httpLog struct {
	mu    sync.Mutex
	calls []httpCall
}

func (l *httpLog) add(c httpCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *httpLog) snapshot() []httpCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]httpCall(nil), l.calls...)
}

// tracedTransport wraps one client's transport: it counts failed requests
// always and, while tracing, logs every call and records it as a span.
type tracedTransport struct {
	who    string
	base   *http.Transport
	rec    *recorder
	cur    *cursor
	log    *httpLog
	errors atomic.Int64
}

func newTracedTransport(who string, rec *recorder, cur *cursor, log *httpLog) *tracedTransport {
	return &tracedTransport{who: who, base: http.DefaultTransport.(*http.Transport).Clone(), rec: rec, cur: cur, log: log}
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req.Method, req.URL.Path)
	sp := t.rec.begin("http."+route, t.cur.span.Load(), t.cur.point.Load())
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	sp.end()
	failed := err != nil || resp.StatusCode >= 400
	if failed && req.Context().Err() == nil {
		t.errors.Add(1)
	}
	if t.rec.enabled() && t.log != nil {
		c := httpCall{who: t.who, route: route, start: start, end: end}
		if resp != nil {
			c.status = resp.StatusCode
		}
		t.log.add(c)
	}
	return resp, err
}

// routeOf names a v1 endpoint without its ids.
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "leases":
		return "lease"
	case len(parts) == 4 && parts[1] == "leases":
		return parts[3] // report | heartbeat
	case len(parts) == 3 && parts[1] == "leases" && method == http.MethodDelete:
		return "return"
	case len(parts) == 2 && parts[1] == "jobs" && method == http.MethodPost:
		return "submit"
	case len(parts) == 4 && parts[1] == "jobs":
		return "events"
	case len(parts) == 3 && parts[1] == "jobs":
		return "job"
	case len(parts) >= 2 && parts[1] == "workers":
		return "worker"
	}
	return "other"
}
