package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// The MVis/s of a window is total visibilities over total pass wall
// time: a slow pass weighs by its duration, not as one vote among
// per-pass rates.
func TestRateWindowIsTotalWorkOverTotalWall(t *testing.T) {
	var r rateWindow
	if got := r.mvisPerSec(); got != 0 {
		t.Fatalf("empty window rate %g, want 0", got)
	}
	r.add(1_000_000, time.Second)
	r.add(1_000_000, 3*time.Second)
	if got := r.mvisPerSec(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rate %g MVis/s, want 2 MVis / 4 s = 0.5 (a mean of per-pass rates would give 0.667)", got)
	}
	if got := r.meanMS(); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("mean pass %g ms, want 2000", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			// Descending, so the percentile must sort.
			s[i] = time.Duration(n-i) * time.Millisecond
		}
		return s
	}
	if _, err := percentile(samples(199), 95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	p95, err := percentile(samples(200), 95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if p95 != 190*time.Millisecond {
		t.Fatalf("p95 of 1..200 ms = %v, want 190ms", p95)
	}
	p50, err := percentile(samples(20), 50)
	if err != nil || p50 != 10*time.Millisecond {
		t.Fatalf("p50 of 1..20 ms = %v, %v; want 10ms", p50, err)
	}
	if _, err := percentile(samples(19), 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

// The quartiles must agree with Python's statistics.quantiles(n=4),
// which is how the bounds are checked.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 4, 2}, [3]float64{1.625, 3.5, 6.5}},
	} {
		q1, med, q3 := quartiles(tc.in)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Fatalf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
	if got := relativeSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tidgperf\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 123456*1024 {
		t.Fatalf("VmHWM %d bytes, want %d", got, 123456*1024)
	}
	for _, bad := range []string{
		"Name:\tx\nVmRSS:\t 1 kB\n",
		"VmHWM:\t 12 MB\n",
		"VmHWM:\t twelve kB\n",
		"VmHWM:\n",
	} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Fatalf("parseVmHWM(%q) accepted a malformed listing", bad)
		}
	}
}

// Errors, refusals and failed output checks all count against
// error_rate, and none of them contributes time to a rate.
func TestErrorRateCountsEveryFailure(t *testing.T) {
	failuresLogged.Store(100) // keep the expected failures off stderr
	w := newWindowResult()
	ok := opResult{wall: time.Second, gridVis: 1000, gridWall: time.Second}
	w.record(ok)
	w.record(opResult{refused: errors.New("server: too many sessions (HTTP 429)")})
	w.record(opResult{err: errors.New("boom"), gridVis: 1000, gridWall: time.Second})
	bad := ok
	bad.badOut = errors.New("hash mismatch")
	w.record(bad)
	c := w.counts
	if c.attempted != 4 || c.refused != 1 || c.errored != 1 || c.badOutput != 1 || c.failed() != 3 {
		t.Fatalf("counts %+v, want 4 attempted with one refusal, one error and one bad output", c)
	}
	if got := c.errorRate(); got != 0.75 {
		t.Fatalf("error rate %g, want 0.75", got)
	}
	if w.grid.passes != 1 || w.grid.vis != 1000 || len(w.opWalls) != 1 {
		t.Fatalf("failed ops leaked into the rate: %+v, %d op walls", w.grid, len(w.opWalls))
	}
	for msg, want := range map[string]bool{
		"server: tenant over quota (HTTP 429)":  true,
		"server: draining (HTTP 503)":           true,
		"server: HTTP 503: ":                    true,
		"server: gridding failed (HTTP 500)":    false,
		"dial tcp 127.0.0.1:1: connect refused": false,
	} {
		if got := isRefusal(errors.New(msg)); got != want {
			t.Fatalf("isRefusal(%q) = %t, want %t", msg, got, want)
		}
	}
	var total opCounts
	total.add(c)
	total.add(opCounts{attempted: 4})
	if got := total.errorRate(); got != 3.0/8 {
		t.Fatalf("merged error rate %g, want 3/8", got)
	}
}

func TestSeededSkyIsDeterministic(t *testing.T) {
	a, b := newSeededSky(7, 1e-4), newSeededSky(7, 1e-4)
	if len(a.model) != 4 {
		t.Fatalf("%d sources, want 4", len(a.model))
	}
	for i := range a.model {
		if a.model[i] != b.model[i] {
			t.Fatalf("seed 7 gave two different models: %v vs %v", a.model, b.model)
		}
	}
	for _, s := range a.model[1:] {
		if s.I >= a.model[0].I {
			t.Fatalf("source %v is not fainter than the brightest %v", s, a.model[0])
		}
	}
	if c := newSeededSky(8, 1e-4); c.model[0] == a.model[0] {
		t.Fatal("seeds 7 and 8 gave the same brightest source")
	}
}
