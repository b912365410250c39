// Crash-recovery tests for the journaled coordinator: a coordinator killed
// mid-campaign (no drain, no final flush beyond the periodic one) restarts
// from its journal with the lease ledger, worker registry, and counters
// intact, and the resumed campaign — fixed and adaptive jobs alike — ends
// with tallies bit-identical to an uninterrupted single-node run.
package fleet_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpurel/client"
	"gpurel/internal/adaptive"
	"gpurel/internal/campaign"
	"gpurel/internal/faults"
	"gpurel/internal/fleet"
	"gpurel/internal/service"
)

// lowFR is the adaptive test experiment: a fault rate low enough that the
// early-stopping rule fires well before the run budget.
func lowFR(run int, rng *rand.Rand) faults.Result {
	if rng.Float64() < 0.02 {
		return faults.Result{Outcome: faults.SDC}
	}
	return faults.Result{Outcome: faults.Masked}
}

// killResumeSource dispatches per app: "fixed" jobs use the shared synthetic
// outcome, "adaptive" jobs the low-fault-rate experiment.
func killResumeSource(perRun time.Duration) service.SourceFunc {
	return func(spec service.JobSpec) (campaign.Experiment, error) {
		return func(run int, rng *rand.Rand) faults.Result {
			if perRun > 0 {
				time.Sleep(perRun)
			}
			if spec.App == "adaptive" {
				return lowFR(run, rng)
			}
			return outcome(rng)
		}, nil
	}
}

// TestCoordinatorKillResumeBitIdentical is the tentpole acceptance test:
// a journaled coordinator driving a two-tenant campaign (one fixed job, one
// adaptive early-stopping job) over two workers is killed mid-flight — no
// drain, workers severed — and a fresh coordinator restored from the same
// journal finishes both jobs with tallies bit-identical to uninterrupted
// local runs.
func TestCoordinatorKillResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	schedCkpt := filepath.Join(dir, "sched.ckpt.json")
	fleetCkpt := filepath.Join(dir, "fleet.journal.json")
	const fixedRuns, fixedSeed = 1500, 11
	const adRuns, adSeed, adMargin = 3000, 42, 0.0235

	schedCfg := service.Config{
		Source:             killResumeSource(300 * time.Microsecond),
		DisableLocalExec:   true,
		CheckpointPath:     schedCkpt,
		CheckpointInterval: 10 * time.Millisecond,
	}
	coordCfg := fleet.CoordinatorConfig{
		LeaseRuns: 200, LeaseTTL: 400 * time.Millisecond, Sweep: 20 * time.Millisecond,
		JournalPath: fleetCkpt, FlushInterval: 10 * time.Millisecond,
	}

	sched1, err := service.NewScheduler(schedCfg)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := fleet.NewCoordinator(sched1, coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(service.NewServer(sched1).Handler(coord1.Mount))

	fixed, err := sched1.Submit(service.JobSpec{
		Layer: "micro", App: "fixed", Kernel: "K1", Runs: fixedRuns, Seed: fixedSeed,
		Tenant: "alice",
	})
	if err != nil {
		t.Fatal(err)
	}
	adapt, err := sched1.Submit(service.JobSpec{
		Layer: "micro", App: "adaptive", Kernel: "K1", Runs: adRuns, Seed: adSeed,
		Tenant: "bob", Priority: 2,
		Sampling: &service.SamplingSpec{Margin99: adMargin},
	})
	if err != nil {
		t.Fatal(err)
	}

	for i, id := range []string{"ka", "kb"} {
		startWorker(t, fleet.WorkerConfig{
			ID: id, Client: client.New(srv1.URL), Source: killResumeSource(300 * time.Microsecond),
			Chunk: []int{40, 70}[i], Workers: 1, Backoff: testBackoff,
		})
	}

	// Let both jobs make real progress, then crash the coordinator: sever
	// the workers (no drain, no lease return), skip the final flush — the
	// journal holds whatever the last periodic flush captured.
	deadline := time.Now().Add(20 * time.Second)
	for {
		f, _ := sched1.Get(fixed.ID)
		a, _ := sched1.Get(adapt.ID)
		if f.Done >= 200 && a.Done >= 200 {
			break
		}
		if f.State.Terminal() && a.State.Terminal() {
			t.Fatal("both jobs finished before the kill; slow the source down")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress before kill: fixed %+v adaptive %+v", f, a)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := coord1.Flush(); err != nil { // stand-in for the last periodic flush
		t.Fatal(err)
	}
	srv1.Close() // workers lose the coordinator mid-lease
	coord1.Kill()
	if err := sched1.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal must hold outstanding leases and both workers.
	raw, err := os.ReadFile(fleetCkpt)
	if err != nil {
		t.Fatal(err)
	}
	var jf struct {
		Version int `json:"version"`
		Leases  []struct {
			JobID string `json:"job_id"`
		} `json:"leases"`
		Workers []struct {
			Name string `json:"name"`
		} `json:"workers"`
		Stats service.LeaseStats `json:"stats"`
	}
	if err := json.Unmarshal(raw, &jf); err != nil {
		t.Fatalf("journal not valid JSON: %v\n%s", err, raw)
	}
	if jf.Version != 1 || len(jf.Workers) != 2 || jf.Stats.Granted == 0 {
		t.Fatalf("journal implausible: %+v", jf)
	}
	if len(jf.Leases) == 0 {
		t.Fatal("journal holds no outstanding leases; the kill missed the mid-lease window")
	}

	// Restart both halves from their journals and let two fresh workers
	// finish the campaign. The dead workers' reclaimed leases expire and
	// requeue; everything re-executes deterministically.
	schedCfg.Source = killResumeSource(0)
	sched2, err := service.NewScheduler(schedCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched2.Close() })
	coord2, err := fleet.NewCoordinator(sched2, coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord2.Close() })
	srv2 := httptest.NewServer(service.NewServer(sched2).Handler(coord2.Mount))
	t.Cleanup(srv2.Close)

	// Restored state: counters carried over, both workers remembered, the
	// journaled leases re-pinned as open.
	if st := coord2.Stats(); st.Granted < jf.Stats.Granted {
		t.Errorf("restored Granted %d < journaled %d", st.Granted, jf.Stats.Granted)
	}
	fs := coord2.FleetStatus()
	if len(fs.Workers) != 2 || !fs.Journaled {
		t.Errorf("restored fleet status %+v", fs)
	}
	if fs.OpenLeases != len(jf.Leases) {
		t.Errorf("restored open leases %d, journal had %d", fs.OpenLeases, len(jf.Leases))
	}

	for _, id := range []string{"kc", "kd"} {
		startWorker(t, fleet.WorkerConfig{
			ID: id, Client: client.New(srv2.URL), Source: killResumeSource(0),
			Chunk: 50, Workers: 1, Backoff: testBackoff,
		})
	}

	finalFixed := waitTerminal(t, sched2, fixed.ID, 60*time.Second)
	finalAdapt := waitTerminal(t, sched2, adapt.ID, 60*time.Second)

	wantFixed := campaign.Run(campaign.Options{Runs: fixedRuns, Seed: fixedSeed},
		func(run int, rng *rand.Rand) faults.Result { return outcome(rng) })
	if finalFixed.State != service.StateDone || finalFixed.Tally != wantFixed {
		t.Errorf("fixed job after kill+resume %+v, want tally %+v", finalFixed, wantFixed)
	}

	wantAdapt := adaptive.Run(campaign.Options{Runs: adRuns, Seed: adSeed}, adaptive.Policy{Margin: adMargin}, lowFR)
	if !wantAdapt.EarlyStopped {
		t.Fatal("test premise broken: local adaptive run did not stop early")
	}
	if finalAdapt.State != service.StateDone || finalAdapt.Tally != wantAdapt.Tally || finalAdapt.Done != wantAdapt.Tally.N {
		t.Errorf("adaptive job after kill+resume %+v, want stop at n=%d tally %+v",
			finalAdapt, wantAdapt.Tally.N, wantAdapt.Tally)
	}
	if !finalAdapt.EarlyStopped {
		t.Errorf("adaptive job lost its early stop: %+v", finalAdapt)
	}
}

// TestJournalDropsSettledJobs: restoring a journal whose leases point at
// jobs the scheduler no longer tracks (or has finished) drops those leases
// instead of resurrecting them.
func TestJournalDropsSettledJobs(t *testing.T) {
	dir := t.TempDir()
	fleetCkpt := filepath.Join(dir, "fleet.journal.json")

	// Hand-craft a journal holding one lease for a job that will not exist.
	jf := map[string]any{
		"version":    1,
		"saved_unix": 1,
		"leases": []map[string]any{
			{"id": "l000000000001", "job_id": "ghost", "worker": "w1", "from": 0, "to": 100, "deadline_unix": 1},
		},
		"workers": []map[string]any{
			{"name": "w1", "caps": map[string]any{}, "registered": true},
		},
		"stats": map[string]any{"granted": 7},
	}
	raw, err := json.MarshalIndent(jf, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fleetCkpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	coord, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{JournalPath: fleetCkpt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	fs := coord.FleetStatus()
	if fs.OpenLeases != 0 {
		t.Errorf("ghost lease restored: %+v", fs)
	}
	if len(fs.Workers) != 1 || fs.Workers[0].Name != "w1" || !fs.Workers[0].Registered {
		t.Errorf("registry not restored: %+v", fs.Workers)
	}
	if fs.Leases.Granted != 7 {
		t.Errorf("stats not restored: %+v", fs.Leases)
	}
}

// TestJournalVersionMismatch: an incompatible journal fails loudly instead
// of restoring garbage.
func TestJournalVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal.json")
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	if _, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{JournalPath: path}); err == nil {
		t.Fatal("version-99 journal accepted")
	}
}

// TestCloseKeepsJournaledLeases: a journaled coordinator's graceful Close
// leaves open leases in the journal (their workers may outlive the process)
// instead of requeueing them, and the next coordinator restores them.
func TestCloseKeepsJournaledLeases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal.json")
	sched, err := service.NewScheduler(service.Config{Source: synthSource(0), DisableLocalExec: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	coord, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{
		JournalPath: path, LeaseTTL: 30 * time.Second, LeaseRuns: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(sched).Handler(coord.Mount))
	t.Cleanup(srv.Close)

	if _, err := sched.Submit(service.JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 300, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	c := client.New(srv.URL)
	ls, ok, err := c.Lease(context.Background(), service.LeaseRequest{Worker: "wkeep"})
	if err != nil || !ok {
		t.Fatalf("lease: %v ok=%v", err, ok)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	coord2, err := fleet.NewCoordinator(sched, fleet.CoordinatorConfig{
		JournalPath: path, LeaseTTL: 30 * time.Second, LeaseRuns: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord2.Close() })
	fs := coord2.FleetStatus()
	if fs.OpenLeases != 1 {
		t.Fatalf("journaled lease lost across Close/restore: %+v", fs)
	}
	if fs.Leases.Returned != 0 {
		t.Errorf("journaled Close requeued the lease: %+v", fs.Leases)
	}
	_ = ls
}
