package main

import (
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. req groups the
// spans of one unit of work: the daemon request index j, or the pass index
// for pass and exp.<id> spans (-1: none). parent names the span that
// caused this one ("" for a root).
type span struct {
	name   string
	parent string
	req    int
	start  time.Time
	dur    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path pays one nil check per span.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin starts a span and returns the function that ends it.
func (t *tracer) begin(name, parent string, req int) func() {
	if t == nil {
		return func() {}
	}
	start := now()
	return func() {
		d := now().Sub(start)
		t.mu.Lock()
		t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start, dur: d})
		t.mu.Unlock()
	}
}

// durations returns the durations of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// byRequest sums, per request index, the durations of the spans whose
// name has the given prefix.
func (t *tracer) byRequest(prefix string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.req >= 0 && strings.HasPrefix(s.name, prefix) {
			out[s.req] += s.dur
		}
	}
	return out
}
