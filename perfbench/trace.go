package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; they are written out
// once, when the run ends. A span covers one call into a layer's public
// function, made from the benchmark's own code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the index of the enclosing span (-1
// at top level); Lane separates concurrent callers (client goroutines).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Lane   int           `json:"lane"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f as span name under parent on lane and returns the span's index.
func (t *tracer) do(name string, parent, lane int, f func()) int {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	return t.add(span{Name: name, Parent: parent, Lane: lane, Start: start, End: end})
}

// open starts a span whose end is recorded by close; for spans that
// enclose others.
func (t *tracer) open(name string, parent, lane int) int {
	return t.add(span{Name: name, Parent: parent, Lane: lane, Start: time.Since(t.t0), End: -1})
}

func (t *tracer) close(id int) {
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// layerTotals sums duration and call count per span name.
type layerTotals struct {
	dur   time.Duration
	calls int
}

// mark returns the index the next span will get; totals(mark) then covers
// one composition's spans alone.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) totals(from int) map[string]*layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*layerTotals{}
	for _, s := range t.spans[from:] {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.dur += s.End - s.Start
		lt.calls++
	}
	return out
}

// childTime sums the durations of the direct children of span parent.
func (t *tracer) childTime(parent int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent == parent {
			d += s.End - s.Start
		}
	}
	return d
}

func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End - t.spans[id].Start
}

// writeJSON writes the spans as a Chrome trace-event document.
func (t *tracer) writeJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.Parent}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}
