package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Span is one completed trace event: a pipeline stage, one work item
// inside a stage, or one pixel tile inside an item. Times are
// nanoseconds relative to the tracer's epoch, so traces are
// self-contained and replayable.
type Span struct {
	Stage Stage `json:"stage"`
	// Worker is the worker index that ran the span; -1 for spans of
	// the whole stage (no single worker).
	Worker int `json:"worker"`
	// Group is the chunk index within the pass (the W-plane index
	// for StageWPlane, the major-cycle index for StageCycle); -1 when
	// not applicable.
	Group int `json:"group"`
	// Item is the work-item index within the pass; -1 for
	// stage-level spans.
	Item int `json:"item"`
	// Tile is the pixel-tile index within the item; -1 except for
	// StageTile spans.
	Tile int `json:"tile"`
	// Baseline is the plan baseline of an item span; -1 otherwise.
	Baseline int `json:"baseline"`
	// Shard is the grid-shard index of a StageShard span (one locked
	// row band of the sharded adder/splitter); -1 otherwise.
	Shard int `json:"shard"`
	// WPlane is the W-layer index the span's data belongs to, so
	// W-stacked passes attribute adder/splitter work to layers the same
	// way tile spans carry tile ids; -1 when unknown or mixed.
	WPlane int `json:"wplane"`
	// Start is the span begin time in nanoseconds since the tracer
	// epoch; Dur is its length in nanoseconds.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
}

// DefaultMaxSpans bounds the tracer buffer when the caller does not:
// at 88 bytes per span this caps tracer memory near 23 MB, enough for
// every item of a paper-scale pass with tiles to spare.
const DefaultMaxSpans = 1 << 18

// Tracer records completed spans into a bounded in-memory buffer.
// Record is safe for concurrent use and nil-safe; once the buffer is
// full further spans are counted as dropped rather than grown, so a
// forgotten tracer can never consume unbounded memory.
type Tracer struct {
	epoch time.Time
	max   int

	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// NewTracer returns a tracer bounded to maxSpans spans (<= 0 selects
// DefaultMaxSpans). The epoch is the creation time: Span.Start values
// count from here.
func NewTracer(maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Tracer{epoch: time.Now(), max: maxSpans}
}

// Offset converts an absolute time into epoch-relative nanoseconds
// for Span.Start.
func (t *Tracer) Offset(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return tm.Sub(t.epoch).Nanoseconds()
}

// Record appends a completed span (dropped silently once the buffer
// is full; see Dropped).
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Len returns the number of buffered spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans discarded because the buffer
// was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the buffered spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Trace is the exported form of a tracer: the epoch as absolute time
// plus every buffered span. This is what WriteJSON emits and ReadJSON
// decodes.
type Trace struct {
	// EpochUnixNs anchors the relative span times in absolute time.
	EpochUnixNs int64 `json:"epoch_unix_ns"`
	// Dropped counts spans lost to the buffer bound.
	Dropped int64  `json:"dropped,omitempty"`
	Spans   []Span `json:"spans"`
}

// Trace snapshots the tracer into its exportable form.
func (t *Tracer) Trace() Trace {
	if t == nil {
		return Trace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Trace{
		EpochUnixNs: t.epoch.UnixNano(),
		Dropped:     t.dropped,
		Spans:       append([]Span(nil), t.spans...),
	}
}

// WriteJSON writes the trace in the native JSON format (decodable by
// ReadJSON).
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Trace())
}

// ReadJSON decodes a trace written by WriteJSON.
func ReadJSON(r io.Reader) (Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return Trace{}, fmt.Errorf("obs: decoding trace: %w", err)
	}
	for i, s := range tr.Spans {
		if s.Dur < 0 {
			return Trace{}, fmt.Errorf("obs: span %d has negative duration %d", i, s.Dur)
		}
	}
	return tr, nil
}

// chromeEvent is one entry of the chrome://tracing JSON array format
// ("X" complete events plus "M" metadata; timestamps in microseconds).
type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name     string `json:"name,omitempty"`
	Group    int    `json:"group,omitempty"`
	Item     int    `json:"item,omitempty"`
	Tile     int    `json:"tile,omitempty"`
	Baseline int    `json:"baseline,omitempty"`
	Shard    int    `json:"shard,omitempty"`
	WPlane   int    `json:"wplane,omitempty"`
}

// WriteChromeTrace writes the spans as a chrome://tracing-compatible
// event stream ({"traceEvents": [...]}): load the file in
// chrome://tracing or https://ui.perfetto.dev to see the pipeline
// timeline per worker. Stage-level spans (worker -1) land on lane 0
// ("pipeline"); worker w lands on lane w+1.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	tr := t.Trace()
	events := make([]chromeEvent, 0, len(tr.Spans)+2)
	lanes := map[int]bool{}
	for _, s := range tr.Spans {
		tid := s.Worker + 1
		lanes[tid] = true
		ev := chromeEvent{
			Name: string(s.Stage),
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Pid:  1,
			Tid:  tid,
		}
		if s.Item >= 0 || s.Tile >= 0 || s.Group >= 0 || s.Shard >= 0 || s.WPlane >= 0 {
			ev.Args = &chromeArgs{Group: s.Group, Item: s.Item, Tile: s.Tile,
				Baseline: s.Baseline, Shard: s.Shard, WPlane: s.WPlane}
		}
		events = append(events, ev)
	}
	for tid := range lanes {
		name := fmt.Sprintf("worker %d", tid-1)
		if tid == 0 {
			name = "pipeline"
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: &chromeArgs{Name: name},
		})
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
