package service

import (
	"math/rand"
	"path/filepath"
	"testing"

	"gpurel/internal/campaign"
	"gpurel/internal/faults"
)

// liveIDs lists the live index in order.
func liveIDs(s *Scheduler) []string {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	var ids []string
	for _, j := range s.live {
		ids = append(ids, j.id)
	}
	return ids
}

// TestLiveIndexTracksNonTerminalJobs: ClaimWork plans from an index that
// holds exactly the non-terminal jobs in submission order — a job joins it
// on Submit and on journal resume and leaves it when it finishes, however
// it finishes.
func TestLiveIndexTracksNonTerminalJobs(t *testing.T) {
	exp := func(run int, rng *rand.Rand) faults.Result { return faults.Result{Outcome: faults.Masked} }
	cfg := Config{
		Source:           func(JobSpec) (campaign.Experiment, error) { return exp, nil },
		DisableLocalExec: true,
		CheckpointPath:   filepath.Join(t.TempDir(), "ckpt.json"),
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, err := s.Submit(JobSpec{Layer: "micro", App: "fake", Kernel: "K1", Runs: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if got := liveIDs(s); len(got) != 3 || got[0] != ids[0] || got[1] != ids[1] || got[2] != ids[2] {
		t.Fatalf("live after submits = %v, want %v", got, ids)
	}

	// A canceled job that a lane already started is settled by the next
	// claim that reaches it; either way it leaves the index.
	s.Cancel(ids[0])
	wa, ok := s.ClaimWork(50)
	if !ok || wa.JobID != ids[1] {
		t.Fatalf("claim = %+v ok=%v, want all of %s", wa, ok, ids[1])
	}
	tl := campaign.RunRange(campaign.Options{Runs: 50, Seed: 2}, 0, 50, exp)
	if st, _, err := s.ReportWork(ids[1], 0, 50, tl); err != nil || st.State != StateDone {
		t.Fatalf("report: %+v %v", st, err)
	}
	if got := liveIDs(s); len(got) != 1 || got[0] != ids[2] {
		t.Fatalf("live after cancel and completion = %v, want [%s]", got, ids[2])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A resumed scheduler lists all three jobs but indexes only the one
	// still to run.
	s2, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := len(s2.List()); n != 3 {
		t.Errorf("resumed scheduler lists %d jobs, want 3", n)
	}
	if got := liveIDs(s2); len(got) != 1 || got[0] != ids[2] {
		t.Errorf("live after resume = %v, want [%s]", got, ids[2])
	}
}
