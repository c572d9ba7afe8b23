package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's exported function. Parent is the ID of the span
// that caused it (0 for a root) and Op the workload op it belongs to.
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Duration // since the tracer's origin
	// Work is the span's unit count (visibilities for a kernel call,
	// subgrids for a stage call, iterations for CLEAN); 0 if none.
	Work int64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil *tracer records nothing, so the untraced code
// path shares the traced one without a branch per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin starts a span named name under parent (nil for a root) in op.
func (t *tracer) begin(name string, parent *openSpan, op int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	o := &openSpan{t: t, s: span{ID: id, Op: op, Name: name}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	o.start = time.Now()
	return o
}

// end records the span with work units of work.
func (o *openSpan) end(work int64) {
	if o == nil {
		return
	}
	now := time.Now()
	o.s.Start = o.start.Sub(o.t.origin)
	o.s.End = now.Sub(o.t.origin)
	o.s.Work = work
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]time.Duration(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total time.Duration
	lo, hi := s[0][0], s[0][1]
	for _, x := range s[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// spanIndex answers the per-layer questions over a set of spans.
type spanIndex struct {
	spans    []span
	children map[int64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int64][]span)}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// childCovered is the part of s's interval its direct children cover,
// clipped to s.
func (ix *spanIndex) childCovered(s span) time.Duration {
	var iv [][2]time.Duration
	for _, c := range ix.children[s.ID] {
		lo, hi := c.Start, c.End
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End {
			hi = s.End
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	return covered(iv)
}

// selfTime is a span's duration minus the part of that interval its
// child spans cover.
func (ix *spanIndex) selfTime(s span) time.Duration { return s.dur() - ix.childCovered(s) }

// named returns the spans called name.
func (ix *spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// busy sums the durations of the spans called name (overlapping spans
// on different goroutines both count: busy time, not wall time).
func (ix *spanIndex) busy(name string) (d time.Duration, work int64, n int) {
	for _, s := range ix.named(name) {
		d += s.dur()
		work += s.Work
		n++
	}
	return d, work, n
}

// chromeEvent is one complete ("X") event of the chrome://tracing
// JSON format; times are in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as chrome://tracing JSON, one track per
// op so the stage calls of an op line up under it.
func writeChrome(w io.Writer, spans []span) error {
	ev := make([]chromeEvent, len(spans))
	for i, s := range spans {
		ev[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "work": s.Work},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{ev, "ms"})
}
