package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one campaign
// point share Point; Parent is the enclosing span (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Point  int64         `json:"point,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil or disabled
// recorder records nothing, so untraced runs pay one branch per call.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	r              *recorder
	id, parent, pt int64
	name           string
	start          time.Time
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span under parent (0 = root) for point pt (0 = none).
func (r *recorder) begin(name string, parent, pt int64) spanRef {
	if !r.enabled() {
		return spanRef{}
	}
	return spanRef{r: r, id: r.ids.Add(1), parent: parent, pt: pt, name: name, start: time.Now()}
}

// end records the span and returns its duration (0 when not recording).
func (s spanRef) end() time.Duration {
	if s.r == nil {
		return 0
	}
	now := time.Now()
	s.r.add(span{ID: s.id, Parent: s.parent, Point: s.pt, Name: s.name,
		Start: s.start.Sub(s.r.epoch), End: now.Sub(s.r.epoch)})
	return now.Sub(s.start)
}

func (r *recorder) add(sp span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range r.snapshot() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover. Children
// may overlap each other (parallel campaign goroutines), so coverage is the
// length of the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range spans {
		out[sp.Name] += sp.dur() - covered(sp, kids[sp.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimeReport renders selfTimes sorted by descending self time.
func selfTimeReport(spans []span) string {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	out := "self time by span:\n"
	for _, n := range names {
		out += fmt.Sprintf("  %-32s %10.3f s\n", n, st[n].Seconds())
	}
	return out
}
