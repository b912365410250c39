package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "point", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,60]; the third is clipped
		// to the parent's end, covering [80,100].
		{ID: 2, Parent: 1, Name: "run", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "run", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "run", Start: 80 * ms, End: 120 * ms},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Name: "http", Start: 15 * ms, End: 25 * ms},
	}
	st := selfTimes(spans)
	if got, want := st["point"], 30*ms; got != want {
		t.Errorf("point self time %v, want %v", got, want)
	}
	// run self = (30-10) + 30 + 40 = 90 ms
	if got, want := st["run"], 90*ms; got != want {
		t.Errorf("run self time %v, want %v", got, want)
	}
	if got, want := st["http"], 10*ms; got != want {
		t.Errorf("http self time %v, want %v", got, want)
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	var nilRec *recorder
	if d := nilRec.begin("x", 0, 0).end(); d != 0 {
		t.Errorf("nil recorder span lasted %v", d)
	}
	r := newRecorder()
	r.begin("off", 0, 0).end()
	r.on.Store(true)
	sp := r.begin("on", 0, 7)
	sp.end()
	got := r.snapshot()
	if len(got) != 1 || got[0].Name != "on" || got[0].Point != 7 || got[0].ID != sp.id {
		t.Errorf("recorded %+v, want only the enabled span", got)
	}
}
