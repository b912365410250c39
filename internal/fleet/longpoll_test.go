// Long-poll lease tests: an idle lease request parks at the coordinator and
// is granted as soon as the work ledger changes, a 204 only ever arrives
// after the hold (so a worker that asks again at once cannot spin), Close
// releases parked requests and turns later ones away with 503, and a local
// lane waiting on leased-out work wakes on the report that completes it.
package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gpurel/client"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

// leaseResult is one finished client.Lease call.
type leaseResult struct {
	ls  service.Lease
	ok  bool
	err error
	at  time.Time
}

// leaseAsync issues one lease request in the background.
func leaseAsync(c *client.Client, worker string) <-chan leaseResult {
	out := make(chan leaseResult, 1)
	go func() {
		ls, ok, err := c.Lease(context.Background(), service.LeaseRequest{Worker: worker})
		out <- leaseResult{ls, ok, err, time.Now()}
	}()
	return out
}

// TestFleetLeaseWakesOnSubmit: a lease request that finds nothing parks
// instead of answering 204, and a Submit grants it at once — far inside
// the 20 s hold a one-minute TTL implies.
func TestFleetLeaseWakesOnSubmit(t *testing.T) {
	sched, _, srv := harness(t,
		service.Config{Source: synthSource(0), DisableLocalExec: true},
		fleet.CoordinatorConfig{LeaseRuns: 50, LeaseTTL: time.Minute},
	)
	res := leaseAsync(client.New(srv.URL), "idle")
	time.Sleep(100 * time.Millisecond)
	select {
	case r := <-res:
		t.Fatalf("lease request answered before any work existed: ok=%v err=%v", r.ok, r.err)
	default:
	}

	submitted := time.Now()
	st, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res:
		if r.err != nil || !r.ok {
			t.Fatalf("parked request: ok=%v err=%v, want a grant", r.ok, r.err)
		}
		if r.ls.JobID != st.ID || r.ls.From != 0 || r.ls.To != 50 {
			t.Errorf("grant = %+v, want %s [0,50)", r.ls, st.ID)
		}
		if wait := r.at.Sub(submitted); wait > 2*time.Second {
			t.Errorf("grant took %v after Submit, want well under the 20s hold", wait)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked lease request not woken by Submit")
	}
}

// countingBacklog counts the claims a coordinator hands back to the
// scheduler.
type countingBacklog struct {
	*service.Scheduler
	returns atomic.Int64
}

func (b *countingBacklog) ReturnWork(jobID string, from, to int) {
	b.returns.Add(1)
	b.Scheduler.ReturnWork(jobID, from, to)
}

// countingHandler counts POST /v1/leases requests reaching h.
func countingHandler(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/leases" {
			n.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// TestFleetIdleWorkersDoNotSpin: a worker that asks again as soon as it
// gets a 204 still makes at most one request per hold when it can get
// nothing — whether it is draining or lacks the only job's fault model.
// Two such model-mismatched workers must not wake each other through their
// hand-backs either.
func TestFleetIdleWorkersDoNotSpin(t *testing.T) {
	const ttl = 600 * time.Millisecond // hold = min(TTL, 2·TTL)/3 = 200ms
	const hold = ttl / 3
	sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	backlog := &countingBacklog{Scheduler: sched}
	coord, err := fleet.NewCoordinator(backlog, fleet.CoordinatorConfig{LeaseRuns: 50, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	h := service.NewServer(sched).Handler(coord.Mount)

	names := []string{"drainer", "transient-a", "transient-b"}
	counts := make([]atomic.Int64, len(names))
	for i, name := range names {
		srv := httptest.NewServer(countingHandler(h, &counts[i]))
		t.Cleanup(srv.Close)
		cfg := fleet.WorkerConfig{
			ID: name, Client: client.New(srv.URL), Source: synthSource(0),
			Workers: 1, Backoff: testBackoff,
		}
		if name != "drainer" {
			cfg.Caps.FaultModels = []string{"transient"}
		}
		_, stop := startWorker(t, cfg)
		// Stop the workers before the coordinator closes: a worker that
		// outlives it gets 503s and gives up with an error.
		t.Cleanup(stop)
		if name == "drainer" {
			// The worker registers itself at startup; drain it once it has.
			deadline := time.Now().Add(5 * time.Second)
			for {
				ws, err := client.New(srv.URL).GetWorker(context.Background(), name)
				if err == nil && ws.Registered {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("worker %s never registered: %v", name, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if _, err := client.New(srv.URL).DrainWorker(context.Background(), name); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Only once the all-model worker is draining does the stuck-at job
	// arrive, so nobody can run it.
	stuck := 1
	if _, err := sched.Submit(service.JobSpec{
		Layer: "micro", App: "fake", Kernel: "K1", Structure: "RF", Runs: 300, Seed: 1,
		Fault: &service.FaultSpec{Model: "stuck", Stuck: &stuck},
	}); err != nil {
		t.Fatal(err)
	}

	// Let every worker settle into its idle cycle, then observe two holds.
	time.Sleep(hold)
	before := make([]int64, len(names))
	for i := range counts {
		before[i] = counts[i].Load()
	}
	returns0 := backlog.returns.Load()
	time.Sleep(2 * hold)
	var mismatched int64
	for i, name := range names {
		n := counts[i].Load() - before[i]
		if n > 3 {
			t.Errorf("worker %s made %d lease requests in 2 holds, want at most 3", name, n)
		}
		if name != "drainer" {
			mismatched += n
		}
	}
	// Each mismatched request hands the stuck job back about once; a loop of
	// hand-backs waking each other would run into the thousands.
	if r := backlog.returns.Load() - returns0; r > 2*mismatched+2 {
		t.Errorf("%d hand-backs for %d mismatched lease requests: workers woke each other", r, mismatched)
	}
	if st := coord.Stats(); st.Granted != 0 {
		t.Errorf("stats = %+v: a worker was granted work it cannot run", st)
	}
}

// TestFleetCloseReleasesParkedLease: Close answers a parked lease request
// at once, and a request arriving afterwards gets 503 "unavailable" — not
// an instant 204 a worker would loop on.
func TestFleetCloseReleasesParkedLease(t *testing.T) {
	_, coord, srv := harness(t,
		service.Config{Source: synthSource(0), DisableLocalExec: true},
		fleet.CoordinatorConfig{LeaseTTL: time.Minute},
	)
	res := leaseAsync(client.New(srv.URL), "parked")
	time.Sleep(100 * time.Millisecond)
	select {
	case r := <-res:
		t.Fatalf("lease request answered with no work and no Close: ok=%v err=%v", r.ok, r.err)
	default:
	}

	closed := time.Now()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res:
		if r.ok || r.err == nil {
			t.Errorf("parked request after Close: ok=%v err=%v, want a 503 error", r.ok, r.err)
		}
		if wait := r.at.Sub(closed); wait > 2*time.Second {
			t.Errorf("parked request released %v after Close, want promptly", wait)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not release the parked lease request")
	}

	resp, err := http.Post(srv.URL+"/v1/leases", "application/json", bytes.NewBufferString(`{"lease":{"worker":"late"}}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("lease after Close: status %d, want 503", resp.StatusCode)
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != service.ErrCodeUnavailable {
		t.Errorf("lease after Close: body %q, want error code %q", data, service.ErrCodeUnavailable)
	}
}

// TestFleetLaneWakesOnReport: a local lane whose job is entirely leased
// out waits on the ledger, and the report that completes the job releases
// it at once to the next queued job.
func TestFleetLaneWakesOnReport(t *testing.T) {
	const runs, jobs = 10, 10
	entered := make(chan struct{})
	release := make(chan struct{})
	stop := make(chan struct{})
	exp := func(run int, rng *rand.Rand) faults.Result { return outcome(rng) }
	sched, err := service.NewScheduler(service.Config{
		Shards: 1,
		Source: func(service.JobSpec) (campaign.Experiment, error) {
			// Hold the lane at the start of each job until the test has
			// leased all of the job's runs away from it.
			select {
			case entered <- struct{}{}:
			case <-stop:
				return nil, errors.New("test over")
			}
			select {
			case <-release:
			case <-stop:
			}
			return exp, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	t.Cleanup(func() { close(stop) }) // runs first: frees a lane held by a failed test

	submitAndClaim := func(seed int64) service.WorkAssignment {
		t.Helper()
		st, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: runs, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		wa, ok := sched.ClaimWork(runs)
		if !ok || wa.JobID != st.ID || wa.From != 0 || wa.To != runs {
			t.Fatalf("claim = %+v ok=%v, want all of %s", wa, ok, st.ID)
		}
		return wa
	}

	cur := submitAndClaim(0)
	<-entered
	release <- struct{}{}
	var total time.Duration
	for i := 1; i <= jobs; i++ {
		// The next job waits in the lane's queue, already leased out.
		next := submitAndClaim(int64(i))
		tl := campaign.RunRange(campaign.Options{Runs: runs, Seed: cur.Spec.Seed}, 0, runs, exp)
		reported := time.Now()
		if st, merged, err := sched.ReportWork(cur.JobID, 0, runs, tl); err != nil || !merged || st.State != service.StateDone {
			t.Fatalf("report: %+v merged=%v err=%v", st, merged, err)
		}
		select {
		case <-entered:
			total += time.Since(reported)
		case <-time.After(10 * time.Second):
			t.Fatal("lane did not move on after its job completed")
		}
		release <- struct{}{}
		cur = next
	}
	tl := campaign.RunRange(campaign.Options{Runs: runs, Seed: cur.Spec.Seed}, 0, runs, exp)
	if _, _, err := sched.ReportWork(cur.JobID, 0, runs, tl); err != nil {
		t.Fatal(err)
	}
	// A 25ms re-check poll would average well over 10ms per job here.
	if mean := total / jobs; mean > 10*time.Millisecond {
		t.Errorf("lane took %v on average to leave a completed job, want a wake-up, not a poll", mean)
	}
}
