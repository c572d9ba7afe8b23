package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro"
	"repro/internal/xmath"
)

// workload is one named input set with its provenance.
type workload struct {
	name, why string
	// shape, threads and conns are recorded with every run: the
	// observation shape, the busy threads and the connections it uses.
	shape          string
	threads, conns int
	// setup builds the workload's inputs, starts what it needs and
	// runs one warm-up op, so caches and lazy set-up are filled before
	// the timed window. Spans go to tr when it is non-nil.
	setup func(ctx context.Context, seed int64, tr *tracer) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// reference computes what the outputs are checked against. It is
	// not part of set-up time.
	reference(ctx context.Context) error
	// run executes closed-loop ops for at least d. With tr non-nil
	// every op is replayed as the public stage calls it is made of,
	// each inside a span; op IDs start after opBase.
	run(ctx context.Context, d time.Duration, tr *tracer, opBase int64) (*windowResult, error)
	// layers derives the workload's per-layer metrics from the traced
	// window's spans and both windows' results.
	layers(ix *spanIndex, untraced, traced *windowResult) map[string]float64
	close()
}

// nproc is the host's processor count; busy threads stay within it.
var nproc = runtime.NumCPU()

var workloads = []*workload{
	{
		name:    "dense-cycle",
		why:     "batch f64 major cycle (grid, FFT, CLEAN, degrid) on 30 stations x 256 steps x 16 ch, 1024^2 grid: kernel-bound, ~1000 vis per subgrid",
		shape:   "30 stations, 256 steps, 16 channels, 1024^2 grid, 24^2 subgrids, GaussianBeam A-terms every 64 steps, float64 batch pass, Workers=nproc",
		threads: nproc, conns: 0,
		setup: setupDense,
	},
	{
		name:    "sparse-stream",
		why:     "streamed f32 pass, 2 shards, A-terms every 4 steps, 64 vis per subgrid: moves cost into subgrid FFT, sharded adder and A-term churn",
		shape:   "30 stations, 128 steps, 16 channels, 1024^2 grid, 24^2 subgrids, A-terms every 4 steps, MaxTimestepsPerSubgrid=4, float32, GridShards=2, MaxInflightChunks=2, Workers=nproc",
		threads: nproc, conns: 0,
		setup: setupSparse,
	},
	{
		name:    "server-sessions",
		why:     "2 closed-loop clients of an in-process GridServer, 8.6k-vis sessions: HTTP, CRC-64 frames, admission, plan cache and session lifecycle dominate",
		shape:   "sessions of 10 stations, 48 steps, 4 channels, 256^2 grid, 16^2 subgrids, session Workers=1; 2 clients, one loopback connection each",
		threads: 2, conns: 2,
		setup: setupServer,
	},
	{
		name:    "distrib-2w",
		why:     "RunDistributed, 2 in-process row-partition workers on the dense-cycle observation: plan builds, fills, 64 MiB partials, band shipping, tree reduction",
		shape:   "dense-cycle observation without A-terms, 2 row-axis workers with Workers=1 each, loopback reduction streams",
		threads: 2, conns: 2,
		setup: setupDistrib,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// seededSky is the sky model a seed generates: four point sources at
// whole-pixel offsets from the phase centre, the first clearly the
// brightest and at least 12 pixels from the others. Only this depends
// on the seed.
type seededSky struct {
	model repro.SkyModel
	// brightDX, brightDY is the brightest source's pixel offset.
	brightDX, brightDY int
}

func newSeededSky(seed int64, pixel float64) seededSky {
	r := rand.New(rand.NewSource(seed))
	off := func(max int) int { return r.Intn(2*max+1) - max }
	s := seededSky{brightDX: off(60), brightDY: off(60)}
	s.model = append(s.model, repro.PointSource{
		L: float64(s.brightDX) * pixel, M: float64(s.brightDY) * pixel, I: 1 + 0.2*r.Float64(),
	})
	for len(s.model) < 4 {
		dx, dy := off(90), off(90)
		if abs(dx-s.brightDX) < 12 && abs(dy-s.brightDY) < 12 {
			continue
		}
		s.model = append(s.model, repro.PointSource{
			L: float64(dx) * pixel, M: float64(dy) * pixel, I: 0.15 + 0.3*r.Float64(),
		})
	}
	return s
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// opResult is the outcome of one op.
type opResult struct {
	// wall is the op's wall time, output checks excluded.
	wall time.Duration
	// gridVis visibilities were gridded in gridWall (degrid likewise).
	gridVis              int64
	gridWall             time.Duration
	degridVis            int64
	degridWall           time.Duration
	err, refused, badOut error
}

// windowResult is what one timed window measured.
type windowResult struct {
	counts       opCounts
	wall         time.Duration
	grid, degrid rateWindow
	opWalls      []time.Duration
	// extra holds workload-specific numbers (session percentiles,
	// cycle time, degrid rate).
	extra map[string]metric
}

func newWindowResult() *windowResult { return &windowResult{extra: make(map[string]metric)} }

// record tallies one op. Failed ops count against error_rate and
// contribute no time to any rate.
func (w *windowResult) record(r opResult) {
	w.counts.attempted++
	switch {
	case r.refused != nil:
		w.counts.refused++
		logFailure("refused", r.refused)
	case r.err != nil:
		w.counts.errored++
		logFailure("error", r.err)
	case r.badOut != nil:
		w.counts.badOutput++
		logFailure("output check", r.badOut)
	default:
		w.grid.add(r.gridVis, r.gridWall)
		if r.degridVis > 0 {
			w.degrid.add(r.degridVis, r.degridWall)
		}
		w.opWalls = append(w.opWalls, r.wall)
	}
}

var failuresLogged atomic.Int32

// logFailure reports the first few failed ops on standard error.
func logFailure(kind string, err error) {
	if failuresLogged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "idgperf: op failed (%s): %v\n", kind, err)
	}
}

// closedLoop runs op back to back, starting a new op while less than d
// has passed; the op in flight at the deadline completes and counts.
func closedLoop(d time.Duration, opBase int64, op func(id int64) opResult) *windowResult {
	res := newWindowResult()
	start := time.Now()
	for id := opBase + 1; time.Since(start) < d; id++ {
		res.record(op(id))
	}
	res.wall = time.Since(start)
	return res
}

// parallelItems calls fn(i, lane) for i in [0, n) on workers
// goroutines; lane identifies the goroutine for per-lane buffers.
func parallelItems(n, workers int, fn func(i, lane int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < workers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, lane)
			}
		}(lane)
	}
	wg.Wait()
}

// gather copies the visibilities of a work item into dst, in the
// [t*NrChannels + c] layout the kernels take.
func gather(vs *repro.VisibilitySet, it repro.WorkItem, dst []xmath.Matrix2) []xmath.Matrix2 {
	n := it.NrVisibilities()
	if cap(dst) < n {
		dst = make([]xmath.Matrix2, n)
	}
	dst = dst[:n]
	src := vs.Data[it.Baseline]
	for t := 0; t < it.NrTimesteps; t++ {
		row := (it.TimeStart+t)*vs.NrChannels + it.Channel0
		copy(dst[t*it.NrChannels:(t+1)*it.NrChannels], src[row:row+it.NrChannels])
	}
	return dst
}

// scatter writes a work item's predicted visibilities back.
func scatter(vs *repro.VisibilitySet, it repro.WorkItem, src []xmath.Matrix2) {
	dst := vs.Data[it.Baseline]
	for t := 0; t < it.NrTimesteps; t++ {
		row := (it.TimeStart+t)*vs.NrChannels + it.Channel0
		copy(dst[row:row+it.NrChannels], src[t*it.NrChannels:(t+1)*it.NrChannels])
	}
}

func itemUVW(vs *repro.VisibilitySet, it repro.WorkItem) []repro.UVW {
	return vs.UVW[it.Baseline][it.TimeStart : it.TimeStart+it.NrTimesteps]
}

// gridSHA256 hashes a grid's little-endian complex128 cells, plane by
// plane: the byte order of repro.FingerprintGrid.
func gridSHA256(g *repro.Grid) string {
	h := sha256.New()
	for _, plane := range g.Data {
		h.Write(complexBytes(plane))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// visSHA256 hashes every visibility of a set in storage order.
func visSHA256(vs *repro.VisibilitySet) string {
	h := sha256.New()
	for _, row := range vs.Data {
		if len(row) > 0 {
			h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), len(row)*int(unsafe.Sizeof(row[0]))))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// complexBytes views a complex128 slice as its in-memory bytes, which
// on the little-endian hosts Go supports here is the fingerprint order.
func complexBytes(v []complex128) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*16)
}

// countingProvider wraps an A-term provider and counts evaluations;
// traced replays use it to report aterm.evals.
type countingProvider struct {
	inner repro.ATermProvider
	evals atomic.Int64
}

func (c *countingProvider) Evaluate(station, slot int, l, m float64) xmath.Matrix2 {
	c.evals.Add(1)
	return c.inner.Evaluate(station, slot, l, m)
}
