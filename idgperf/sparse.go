package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro"
	"repro/internal/aterm"
	"repro/internal/grid"
	"repro/internal/xmath"
)

// sparseStream runs float32 streamed gridding passes with two shards
// and frequent A-term updates. Every pass must lie within the
// documented float32 error bound of a float64 batch grid of the same
// data.
type sparseStream struct {
	o       *repro.Observation
	prov    repro.ATermProvider
	k1      *repro.Kernels
	planVis int64
	// ref is the float64 batch grid and bound its per-cell tolerance.
	ref   *repro.Grid
	bound []float64
}

func setupSparse(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	cfg := repro.DefaultObservation()
	cfg.NrTimesteps = 128
	cfg.ATermInterval = 4
	cfg.MaxTimestepsPerSubgrid = 4
	cfg.Precision = repro.Float32
	cfg.GridShards = 2
	cfg.MaxInflightChunks = 2
	cfg.Workers = nproc
	o, err := buildPlan(cfg, tr)
	if err != nil {
		return nil, err
	}
	s := &sparseStream{o: o, planVis: o.Plan.Stats().NrGriddedVisibilities}
	s.prov = repro.GaussianBeamATerms(0.5*o.ImageSize, 0.01*o.ImageSize)
	sky := newSeededSky(seed, o.ImageSize/float64(cfg.GridSize))
	if err := fill(o, sky.model, tr); err != nil {
		return nil, err
	}
	if s.k1, err = singleThreaded(o.Kernels); err != nil {
		return nil, err
	}
	if _, _, _, err := o.GridAllStreamed(ctx, s.prov, repro.FaultConfig{}); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return s, nil
}

// reference grids the same data through the float64 batch pass and
// derives each grid cell's tolerance.
func (s *sparseStream) reference(ctx context.Context) error {
	p := s.o.Kernels.Params()
	p.Precision = repro.Float64
	p.GridShards, p.MaxInflightChunks = 0, 0
	k64, err := repro.NewKernels(p)
	if err != nil {
		return err
	}
	s.ref = repro.NewGrid(s.o.Config.GridSize)
	if _, err := k64.GridVisibilities(ctx, s.o.Plan, s.o.Vis, s.prov, s.ref); err != nil {
		return fmt.Errorf("float64 reference pass: %w", err)
	}
	s.bound = float32GridBounds(s.o.Plan, s.o.Vis)
	return nil
}

// maxPhase is the kernels' documented phase-argument range (DESIGN.md,
// Section VI-C of the paper); it enters the bound only through the
// float64 argument rounding term, which is negligible next to the
// float32 terms.
const maxPhase = 1e4

// float32GridBounds composes the documented float32 gridder bound per
// work item as the core tiling tests do, and sums it over the items
// whose subgrid covers each grid cell. Per subgrid pixel the float32
// pass and the float64 pass each stay within their bound of the exact
// sum; the normalised subgrid FFT does not raise a maximum error, the
// taper and A-terms here are at most 1 in magnitude, and the adder
// adds each item to a cell at most once.
func float32GridBounds(p *repro.Plan, vs *repro.VisibilitySet) []float64 {
	n, sg := p.GridSize, p.SubgridSize
	phaseBound := xmath.PhasorErrorBound(xmath.DefaultPhasorResync, maxPhase)
	drift := phaseBound + xmath.Float32PhasorDriftBound(xmath.DefaultPhasorResync)
	bound := make([]float64, n*n)
	var buf []xmath.Matrix2
	for _, it := range p.Items {
		buf = gather(vs, it, buf)
		maxAmp := 0.0
		for _, v := range buf {
			for _, c := range v {
				maxAmp = math.Max(maxAmp, math.Hypot(real(c), imag(c)))
			}
		}
		nv := float64(it.NrVisibilities())
		sumAbs := math.Sqrt2 * nv * maxAmp
		b32 := 2*math.Sqrt2*nv*maxAmp*drift + 4*xmath.Float32AccumBound(it.NrVisibilities(), sumAbs)
		b64 := 2 * math.Sqrt2 * nv * maxAmp * phaseBound
		for y := max(it.Y0, 0); y < min(it.Y0+sg, n); y++ {
			row := bound[y*n : (y+1)*n]
			for x := max(it.X0, 0); x < min(it.X0+sg, n); x++ {
				row[x] += b32 + b64
			}
		}
	}
	return bound
}

// checkBound reports the first cell where g leaves the bound of ref.
func checkBound(g, ref *repro.Grid, bound []float64) error {
	for c := range g.Data {
		for i, v := range g.Data[c] {
			d := v - ref.Data[c][i]
			e := math.Hypot(real(d), imag(d))
			if e > bound[i] {
				return fmt.Errorf("correlation %d cell %d: |float32 - float64| = %g exceeds the bound %g", c, i, e, bound[i])
			}
		}
	}
	return nil
}

func (s *sparseStream) close() {}

func (s *sparseStream) run(ctx context.Context, w time.Duration, tr *tracer, opBase int64) (*windowResult, error) {
	return closedLoop(w, opBase, func(id int64) opResult {
		var r opResult
		start := time.Now()
		var g *repro.Grid
		if tr == nil {
			var err error
			if g, _, _, err = s.o.GridAllStreamed(ctx, s.prov, repro.FaultConfig{}); err != nil {
				r.err = err
				return r
			}
		} else {
			g = s.replay(tr, id)
		}
		r.wall = time.Since(start)
		r.gridWall, r.gridVis = r.wall, s.planVis
		r.badOut = checkBound(g, s.ref, s.bound)
		return r
	}), nil
}

// replay is GridAllStreamed as the public stage calls the streamed
// scheduler makes: the whole plan's A-terms up front, then up to
// min(workers, MaxInflightChunks) chunk workers, each taking chunks in
// plan order through gridder per item, subgrid FFTs and the sharded
// adder.
func (s *sparseStream) replay(tr *tracer, id int64) *repro.Grid {
	o := s.o
	pass := tr.begin("pass", nil, id)
	g := repro.NewGrid(o.Config.GridSize)
	sh := o.Kernels.NewShardedGrid(g)
	prov := &countingProvider{inner: s.prov}
	cache := aterm.NewCache(prov, o.Config.SubgridSize, o.ImageSize)
	prefill(tr, pass, id, cache, prov, o.Vis, o.Plan.Items)

	chunkItems := o.Kernels.StreamChunkItemsResolved()
	chunks := o.Plan.StreamChunks(chunkItems)
	workers := min(o.Config.Workers, o.Config.MaxInflightChunks, len(chunks))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subgrids := make([]*repro.Subgrid, chunkItems)
			for i := range subgrids {
				subgrids[i] = grid.NewSubgrid(o.Config.SubgridSize, 0, 0)
			}
			var buf []xmath.Matrix2
			for {
				mu.Lock()
				ci := next
				next++
				mu.Unlock()
				if ci >= len(chunks) {
					return
				}
				c := chunks[ci]
				cs := tr.begin("chunk", pass, id)
				sgs := subgrids[:len(c.Items)]
				for i, it := range c.Items {
					sp := tr.begin("gridder", cs, id)
					buf = gather(o.Vis, it, buf)
					ap, aq := lookup(cache, o.Vis, it)
					s.k1.GridSubgrid(it, itemUVW(o.Vis, it), buf, ap, aq, sgs[i])
					sp.end(int64(it.NrVisibilities()))
				}
				sp := tr.begin("subgrid_fft", cs, id)
				s.k1.FFTSubgrids(sgs)
				sp.end(int64(len(sgs)))
				sp = tr.begin("adder", cs, id)
				s.k1.AdderSharded(sgs, sh)
				sp.end(int64(len(sgs)))
				cs.end(int64(len(sgs)))
			}
		}()
	}
	wg.Wait()
	pass.end(s.planVis)
	return g
}

func (s *sparseStream) layers(ix *spanIndex, untraced, traced *windowResult) map[string]float64 {
	m := kernelLayers(ix, s.o.Plan, traced)
	wall := untraced.grid.meanMS()
	m["pass.wall_ms"] = wall
	passLayers(m, ix, "pass", wall)
	return m
}
