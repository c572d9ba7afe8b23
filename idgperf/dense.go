package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/aterm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/xmath"
)

// denseCycle runs major cycles over fixed data: GridAll → GridToImage
// → Hogbom → Rasterize → ImageToGrid → degrid. Every cycle must
// reproduce the warm-up cycle's grid and predicted visibilities bit
// for bit, and CLEAN's brightest component must sit on the brightest
// seeded source.
type denseCycle struct {
	o    *repro.Observation
	sky  seededSky
	prov repro.ATermProvider
	// k1 is a single-threaded twin of o.Kernels: a replay calls the
	// per-item kernels from its own worker goroutines, as the batch
	// scheduler does, so the kernels must not fan out again.
	k1        *repro.Kernels
	psf       []float64
	norm      float64
	taperCorr []float64
	predicted *repro.VisibilitySet
	planVis   int64
	cleanP    repro.CleanParams
	// wantGrid and wantPred are the warm-up cycle's hashes.
	wantGrid, wantPred string
	pool               []*repro.Subgrid
}

func setupDense(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	cfg := repro.DefaultObservation()
	cfg.Workers = nproc
	d := &denseCycle{cleanP: repro.CleanParams{Gain: 0.1, MaxIterations: 100}}
	o, err := buildPlan(cfg, tr)
	if err != nil {
		return nil, err
	}
	d.o = o
	d.sky = newSeededSky(seed, o.ImageSize/float64(cfg.GridSize))
	d.prov = repro.GaussianBeamATerms(0.5*o.ImageSize, 0.01*o.ImageSize)
	if err := fill(o, d.sky.model, tr); err != nil {
		return nil, err
	}
	if d.psf, err = o.PSF(ctx); err != nil {
		return nil, fmt.Errorf("PSF: %w", err)
	}
	st := o.Plan.Stats()
	d.planVis = st.NrGriddedVisibilities
	d.norm = float64(cfg.GridSize*cfg.GridSize) / float64(st.NrGriddedVisibilities)
	d.taperCorr = o.Kernels.TaperCorrection(cfg.GridSize)
	if d.predicted, err = repro.NewVisibilitySet(o.Vis.Baselines, o.Vis.UVW, o.Vis.NrChannels); err != nil {
		return nil, err
	}
	if d.k1, err = singleThreaded(o.Kernels); err != nil {
		return nil, err
	}
	// The warm-up cycle fills the FFT plan cache, subgrid pool and
	// SIMD dispatch, and fixes the hashes every later cycle must hit.
	g, r := d.cycle(ctx, nil, 0)
	if r.err != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", r.err)
	}
	d.wantGrid, d.wantPred = gridSHA256(g), visSHA256(d.predicted)
	if r.badOut != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", r.badOut)
	}
	return d, nil
}

// buildPlan is ObservationConfig.BuildPlan inside a plan.build span.
func buildPlan(cfg repro.ObservationConfig, tr *tracer) (*repro.Observation, error) {
	sp := tr.begin("plan.build", nil, 0)
	o, err := cfg.BuildPlan()
	if err != nil {
		return nil, fmt.Errorf("build plan: %w", err)
	}
	sp.end(int64(len(o.Plan.Items)))
	return o, nil
}

// fill predicts the observation's visibilities inside a fill span.
func fill(o *repro.Observation, model repro.SkyModel, tr *tracer) error {
	sp := tr.begin("fill", nil, 0)
	if err := o.FillFromModel(model); err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	sp.end(o.Vis.NrVisibilities())
	return nil
}

// singleThreaded returns kernels with k's parameters and one worker.
func singleThreaded(k *repro.Kernels) (*repro.Kernels, error) {
	p := k.Params()
	p.Workers = 1
	return repro.NewKernels(p)
}

func (d *denseCycle) reference(context.Context) error { return nil }

func (d *denseCycle) close() {}

func (d *denseCycle) run(ctx context.Context, w time.Duration, tr *tracer, opBase int64) (*windowResult, error) {
	res := closedLoop(w, opBase, func(id int64) opResult {
		_, r := d.cycle(ctx, tr, id)
		return r
	})
	if len(res.opWalls) > 0 {
		res.extra["cycle_s"] = metric{meanMS(res.opWalls) / 1e3, "s"}
		res.extra["degrid_mvis_s"] = metric{res.degrid.mvisPerSec(), "MVis/s"}
	}
	return res, nil
}

// cycle runs one major cycle and checks it. With tr non-nil the
// gridding and degridding passes are replayed stage by stage.
func (d *denseCycle) cycle(ctx context.Context, tr *tracer, id int64) (*repro.Grid, opResult) {
	var r opResult
	n := d.o.Config.GridSize
	workers := d.o.Config.Workers
	start := time.Now()
	cyc := tr.begin("cycle", nil, id)

	var g *repro.Grid
	if tr == nil {
		var err error
		if g, _, err = d.o.GridAll(ctx, d.prov); err != nil {
			r.err = err
			return nil, r
		}
	} else {
		g = d.replayGrid(tr, cyc, id)
	}
	r.gridWall, r.gridVis = time.Since(start), d.planVis

	sp := tr.begin("grid_fft", cyc, id)
	img := repro.GridToImage(g, workers)
	sp.end(1)
	repro.ScaleImage(img, d.norm)
	core.ApplyTaperCorrection(img, d.taperCorr)
	dirty := repro.StokesI(img)

	sp = tr.begin("clean", cyc, id)
	cl, err := repro.Hogbom(dirty, d.psf, n, d.cleanP)
	if err != nil {
		r.err = err
		return nil, r
	}
	sp.end(int64(cl.Iterations))
	merged := cl.MergedComponents()
	model := make(repro.SkyModel, 0, len(merged))
	for _, c := range merged {
		l, m := repro.PixelToLM(c.X, c.Y, n, d.o.ImageSize)
		model = append(model, repro.PointSource{L: l, M: m, I: c.Flux})
	}
	modelImg := model.Rasterize(n, d.o.ImageSize)
	sp = tr.begin("grid_fft", cyc, id)
	mg := repro.ImageToGrid(modelImg, workers)
	sp.end(1)

	dstart := time.Now()
	if tr == nil {
		if _, err := d.o.Kernels.DegridVisibilities(ctx, d.o.Plan, d.predicted, d.prov, mg); err != nil {
			r.err = err
			return nil, r
		}
	} else {
		d.replayDegrid(tr, cyc, id, mg)
	}
	r.degridWall, r.degridVis = time.Since(dstart), d.planVis
	r.wall = time.Since(start)
	cyc.end(d.planVis)

	r.badOut = d.check(g, merged)
	return g, r
}

// check compares a cycle's outputs with the warm-up cycle's and the
// seeded sky.
func (d *denseCycle) check(g *repro.Grid, comps []repro.CleanComponent) error {
	if d.wantGrid != "" {
		if got := gridSHA256(g); got != d.wantGrid {
			return fmt.Errorf("grid SHA-256 %s != first cycle's %s", got, d.wantGrid)
		}
		if got := visSHA256(d.predicted); got != d.wantPred {
			return fmt.Errorf("predicted-visibility SHA-256 %s != first cycle's %s", got, d.wantPred)
		}
	}
	if len(comps) == 0 {
		return fmt.Errorf("CLEAN found no component")
	}
	best := comps[0]
	for _, c := range comps[1:] {
		if c.Flux > best.Flux {
			best = c
		}
	}
	n := d.o.Config.GridSize
	wx, wy := n/2+d.sky.brightDX, n/2+d.sky.brightDY
	if abs(best.X-wx) > 1 || abs(best.Y-wy) > 1 {
		return fmt.Errorf("brightest CLEAN component at (%d, %d), brightest source at (%d, %d)", best.X, best.Y, wx, wy)
	}
	return nil
}

// replayGrid is GridAll as the public stage calls the batch scheduler
// makes, group by group: A-term prefill, gridder per item, subgrid
// FFTs, adder.
func (d *denseCycle) replayGrid(tr *tracer, parent *openSpan, id int64) *repro.Grid {
	o := d.o
	pass := tr.begin("pass", parent, id)
	g := repro.NewGrid(o.Config.GridSize)
	prov := &countingProvider{inner: d.prov}
	cache := aterm.NewCache(prov, o.Config.SubgridSize, o.ImageSize)
	bufs := make([][]xmath.Matrix2, nproc)
	for _, group := range o.Plan.WorkGroups(core.DefaultWorkGroupSize) {
		prefill(tr, pass, id, cache, prov, o.Vis, group)
		subgrids := d.subgrids(len(group))
		stage := tr.begin("gridder.stage", pass, id)
		parallelItems(len(group), o.Config.Workers, func(i, lane int) {
			it := group[i]
			sp := tr.begin("gridder", stage, id)
			bufs[lane] = gather(o.Vis, it, bufs[lane])
			ap, aq := lookup(cache, o.Vis, it)
			d.k1.GridSubgrid(it, itemUVW(o.Vis, it), bufs[lane], ap, aq, subgrids[i])
			sp.end(int64(it.NrVisibilities()))
		})
		stage.end(int64(len(group)))
		sp := tr.begin("subgrid_fft", pass, id)
		o.Kernels.FFTSubgrids(subgrids)
		sp.end(int64(len(group)))
		sp = tr.begin("adder", pass, id)
		o.Kernels.Adder(subgrids, g)
		sp.end(int64(len(group)))
	}
	pass.end(d.planVis)
	return g
}

// replayDegrid is DegridVisibilities as stage calls: A-term prefill,
// splitter, inverse subgrid FFTs, degridder per item.
func (d *denseCycle) replayDegrid(tr *tracer, parent *openSpan, id int64, mg *repro.Grid) {
	o := d.o
	pass := tr.begin("degrid.pass", parent, id)
	prov := &countingProvider{inner: d.prov}
	cache := aterm.NewCache(prov, o.Config.SubgridSize, o.ImageSize)
	bufs := make([][]xmath.Matrix2, nproc)
	for _, group := range o.Plan.WorkGroups(core.DefaultWorkGroupSize) {
		prefill(tr, pass, id, cache, prov, o.Vis, group)
		subgrids := d.subgrids(len(group))
		for i, it := range group {
			s := subgrids[i]
			s.X0, s.Y0, s.WOffset, s.WPlane = it.X0, it.Y0, it.WOffset, it.WPlane
		}
		sp := tr.begin("splitter", pass, id)
		o.Kernels.Splitter(mg, subgrids)
		sp.end(int64(len(group)))
		sp = tr.begin("subgrid_fft", pass, id)
		o.Kernels.InverseFFTSubgrids(subgrids)
		sp.end(int64(len(group)))
		stage := tr.begin("degridder.stage", pass, id)
		parallelItems(len(group), o.Config.Workers, func(i, lane int) {
			it := group[i]
			sp := tr.begin("degridder", stage, id)
			n := it.NrVisibilities()
			if cap(bufs[lane]) < n {
				bufs[lane] = make([]xmath.Matrix2, n)
			}
			vis := bufs[lane][:n]
			ap, aq := lookup(cache, o.Vis, it)
			d.k1.DegridSubgrid(it, subgrids[i], itemUVW(o.Vis, it), ap, aq, vis)
			scatter(d.predicted, it, vis)
			sp.end(int64(n))
		})
		stage.end(int64(len(group)))
	}
	pass.end(d.planVis)
}

// subgrids returns n pooled subgrids; the gridder overwrites every
// pixel and anchor, the splitter every pixel.
func (d *denseCycle) subgrids(n int) []*repro.Subgrid {
	for len(d.pool) < n {
		d.pool = append(d.pool, grid.NewSubgrid(d.o.Config.SubgridSize, 0, 0))
	}
	return d.pool[:n]
}

// prefill warms an A-term cache with every map a group needs, inside
// an aterm span counting the provider evaluations.
func prefill(tr *tracer, parent *openSpan, id int64, cache *aterm.Cache, prov *countingProvider, vs *repro.VisibilitySet, items []repro.WorkItem) {
	before := prov.evals.Load()
	sp := tr.begin("aterm", parent, id)
	for _, it := range items {
		b := vs.Baselines[it.Baseline]
		cache.Get(b.P, it.ATermSlot)
		cache.Get(b.Q, it.ATermSlot)
	}
	sp.end(prov.evals.Load() - before)
}

// lookup resolves a work item's two station maps from a warm cache.
func lookup(cache *aterm.Cache, vs *repro.VisibilitySet, it repro.WorkItem) (ap, aq []xmath.Matrix2) {
	if cache == nil {
		return nil, nil
	}
	b := vs.Baselines[it.Baseline]
	return cache.Get(b.P, it.ATermSlot), cache.Get(b.Q, it.ATermSlot)
}

func (d *denseCycle) layers(ix *spanIndex, untraced, traced *windowResult) map[string]float64 {
	m := kernelLayers(ix, d.o.Plan, traced)
	passWallMS := untraced.grid.meanMS()
	m["pass.wall_ms"] = passWallMS
	passLayers(m, ix, "pass", passWallMS)
	m["workload.cycle_s"] = meanMS(untraced.opWalls) / 1e3
	m["workload.degrid_mvis_s"] = untraced.degrid.mvisPerSec()
	return m
}
