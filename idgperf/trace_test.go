package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	parent := tr.begin("pass", nil, 3)
	child := tr.begin("gridder", parent, 3)
	child.end(64)
	parent.end(128)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	p, c := spans[0], spans[1]
	if p.Name != "pass" || c.Name != "gridder" || c.Parent != p.ID || p.Parent != 0 {
		t.Fatalf("nesting lost: %+v / %+v", p, c)
	}
	if c.Start < p.Start || c.End > p.End || c.Op != 3 || c.Work != 64 {
		t.Fatalf("child %+v does not sit inside parent %+v", c, p)
	}
	var none *tracer
	none.begin("x", nil, 1).end(1) // a nil tracer records nothing and does not panic
}

func ms64(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// A pass of 100 ms whose stages cover [10, 60] and [80, 90] has 40 ms
// of self time; an untraced pass of 70 ms then leaves 10 ms to the
// scheduler. Busy time sums the per-item spans of a fanned-out stage.
func TestSelfTimeAndUnattributed(t *testing.T) {
	sp := func(id, parent int64, name string, lo, hi float64) span {
		return span{ID: id, Parent: parent, Name: name, Start: ms64(lo), End: ms64(hi)}
	}
	spans := []span{
		sp(1, 0, "pass", 0, 100),
		sp(2, 1, "gridder.stage", 10, 40),
		sp(3, 2, "gridder", 10, 25),
		sp(4, 2, "gridder", 12, 40),
		sp(5, 1, "subgrid_fft", 30, 60),
		sp(6, 1, "adder", 80, 90),
		// A span from another op must not count.
		sp(7, 0, "cycle", 0, 500),
	}
	ix := indexSpans(spans)
	if got := ix.selfTime(spans[0]); got != ms64(40) {
		t.Fatalf("pass self time %v, want 40ms", got)
	}
	if got := ix.busyUnder(spans[1]); got != ms64(43) {
		t.Fatalf("gridder stage busy %v, want 15ms + 28ms", got)
	}
	m := make(map[string]float64)
	passLayers(m, ix, "pass", 70)
	if got := m["pass.unattributed_ms"]; math.Abs(got-10) > 1e-9 {
		t.Fatalf("unattributed %g ms, want 70 - 60 = 10", got)
	}
	if got := m["pass.stage_busy_ms"]; math.Abs(got-83) > 1e-9 {
		t.Fatalf("stage busy %g ms, want 43 + 30 + 10 = 83", got)
	}
	if got := m["pass.parallel_eff"]; math.Abs(got-0.83) > 1e-9 {
		t.Fatalf("parallel efficiency %g, want 83 / 100", got)
	}
	if d, work, n := ix.busy("gridder"); d != ms64(43) || n != 2 || work != 0 {
		t.Fatalf("busy(gridder) = %v, %d, %d", d, work, n)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	iv := [][2]time.Duration{{50, 60}, {0, 10}, {5, 20}, {20, 30}, {55, 58}}
	if got := covered(iv); got != 40 {
		t.Fatalf("covered %v, want 30 + 10", got)
	}
	if covered(nil) != 0 {
		t.Fatal("empty union must be 0")
	}
}

func TestChromeTraceJSON(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 2, Name: "pass", Start: 1500 * time.Microsecond, End: 4 * time.Millisecond, Work: 9},
		{ID: 2, Parent: 1, Op: 2, Name: "adder", Start: 2 * time.Millisecond, End: 3 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[0]
	if e.Ph != "X" || e.Ts != 1500 || e.Dur != 2500 || e.Tid != 2 || e.Args["work"] != float64(9) {
		t.Fatalf("event %+v, want a complete event at 1500 us lasting 2500 us on track 2", e)
	}
	if doc.TraceEvents[1].Args["parent"] != float64(1) {
		t.Fatalf("child event lost its parent: %+v", doc.TraceEvents[1])
	}
}
