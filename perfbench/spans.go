package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the program's public functions and HTTP endpoints.
// Spans of one operation share Op; Parent indexes the enclosing span (-1
// for a root). Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder (the
// untraced run) records nothing and costs one nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder {
	if !on {
		return nil
	}
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, for end and for children.
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records an already-timed span.
func (r *recorder) add(name string, op int64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanTotal is the summed wall and self time of every span of one name.
type spanTotal struct {
	Name  string
	Count int
	Wall  time.Duration
	Self  time.Duration
}

// selfTimes sums each span name's duration and its self time: the
// duration minus the part its children cover (children of one span run
// one after another, so their durations add up).
func (r *recorder) selfTimes() []spanTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotal{}
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.End - s.Start
		t.Count++
		t.Wall += time.Duration(d)
		t.Self += time.Duration(max(0, d-child[i]))
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}
