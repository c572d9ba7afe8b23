package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rateWindow accumulates the work and the wall time of the passes run
// inside one timed window. Its rate is the repository's single MVis/s
// definition: visibilities of every completed pass divided by the wall
// seconds spent in those passes — never a median of per-pass rates,
// which on a drifting host over-weights a few lucky passes.
type rateWindow struct {
	vis    int64
	wall   time.Duration
	passes int
}

// add records one completed pass over vis visibilities that took d.
func (r *rateWindow) add(vis int64, d time.Duration) {
	r.vis += vis
	r.wall += d
	r.passes++
}

// mvisPerSec returns the window rate in MVis/s (0 for an empty window).
func (r *rateWindow) mvisPerSec() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.vis) / r.wall.Seconds() / 1e6
}

// meanMS returns the mean pass wall time in milliseconds.
func (r *rateWindow) meanMS() float64 {
	if r.passes == 0 {
		return 0
	}
	return ms(r.wall) / float64(r.passes)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minBeyond is the number of samples a reported percentile must have
// beyond it: a p95 over fewer than 200 samples rests on a handful of
// outliers and is refused.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples
// (0 < p < 100). It fails when fewer than minBeyond samples lie beyond
// the percentile, so a reported tail always has ten samples behind it.
func percentile(samples []time.Duration, p float64) (time.Duration, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of an empty population", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], nil
}

// quartiles returns q1, median and q3 by the "exclusive" method of
// Python's statistics.quantiles(values, n=4), the definition the
// benchmark's bounds are checked with. It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// A transcription of CPython's exclusive method: position
		// i*(n+1)/4 in 1-based order, the index clamped to [1, n-1]
		// and the weight taken from the unclamped position.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// relativeSpread is (q3 - q1) / median: the run-to-run spread a bound
// must cover.
func relativeSpread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// parseVmHWM extracts the peak resident set size from a
// /proc/<pid>/status listing, in bytes.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil || kb < 0 {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return kb * 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// opCounts tallies the ops of a window by outcome. An op counts once
// however it went wrong; every kind of failure counts against
// error_rate.
type opCounts struct {
	attempted int
	// errored ops returned an error, refused ops were turned away by
	// admission control, and badOutput ops completed but failed the
	// output check.
	errored, refused, badOutput int
}

// failed is the number of ops that did not deliver a checked result.
func (c opCounts) failed() int { return c.errored + c.refused + c.badOutput }

// errorRate is failed ops over attempted ops.
func (c opCounts) errorRate() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed()) / float64(c.attempted)
}

// add merges other into c.
func (c *opCounts) add(other opCounts) {
	c.attempted += other.attempted
	c.errored += other.errored
	c.refused += other.refused
	c.badOutput += other.badOutput
}
