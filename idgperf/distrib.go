package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/distrib"
)

// distribTwo runs RunDistributed with two in-process row-partition
// workers. Every reduced grid must lie within 1e-12 of peak of the
// serial streamed grid, with no worker restarted.
type distribTwo struct {
	cfg     repro.ObservationConfig
	o       *repro.Observation
	model   repro.SkyModel
	planVis int64
	ref     *repro.Grid
	refPeak float64
	// restarts counts worker relaunches over every pass.
	restarts int
	// shipped accumulates the computed reduction payload of traced
	// passes: each worker ships the nonzero row span of its partial.
	shipped atomic.Int64
}

const distribWorkers = 2

func setupDistrib(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	cfg := repro.DefaultObservation()
	cfg.Workers = 1
	o, err := buildPlan(cfg, tr)
	if err != nil {
		return nil, err
	}
	d := &distribTwo{cfg: cfg, o: o, planVis: o.Plan.Stats().NrGriddedVisibilities}
	d.model = newSeededSky(seed, o.ImageSize/float64(cfg.GridSize)).model
	g, sum, err := d.pass(ctx, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if g == nil || sum.Restarts != 0 {
		return nil, fmt.Errorf("warm-up pass restarted %d workers", sum.Restarts)
	}
	return d, nil
}

// reference is the serial streamed pass over the full observation.
func (d *distribTwo) reference(ctx context.Context) error {
	if err := fill(d.o, d.model, nil); err != nil {
		return err
	}
	g, _, _, err := d.o.GridAllStreamed(ctx, nil, repro.FaultConfig{})
	if err != nil {
		return fmt.Errorf("serial streamed pass: %w", err)
	}
	d.ref = g
	for _, plane := range g.Data {
		for _, v := range plane {
			d.refPeak = math.Max(d.refPeak, math.Hypot(real(v), imag(v)))
		}
	}
	// Only the plan is needed from here on.
	d.o.Vis = nil
	return nil
}

func (d *distribTwo) close() {}

// pass runs one distributed pass. With tr non-nil the workers run the
// public worker steps inside spans.
func (d *distribTwo) pass(ctx context.Context, tr *tracer, id int64) (*repro.Grid, *repro.DistribSummary, error) {
	opt := repro.DistribOptions{Config: d.cfg, Model: d.model, Workers: distribWorkers, Axis: repro.DistribRows}
	root := tr.begin("distrib.pass", nil, id)
	if tr != nil {
		opt.Launcher = repro.DistribLauncherFunc(func(ctx context.Context, spec repro.DistribWorkerSpec) error {
			return d.tracedWorker(ctx, tr, root, id, spec)
		})
	}
	g, sum, err := repro.RunDistributed(ctx, opt)
	if err != nil {
		return nil, nil, err
	}
	root.end(d.planVis)
	return g, sum, nil
}

// tracedWorker is RunDistribWorker's sequence of public steps, each in
// a span: build the plan, keep this worker's partition, fill it, grid
// it through the streamed scheduler, deliver the partial.
func (d *distribTwo) tracedWorker(ctx context.Context, tr *tracer, parent *openSpan, id int64, spec repro.DistribWorkerSpec) error {
	ws := tr.begin("distrib.worker", parent, id)
	step := func(name string, fn func() (int64, error)) error {
		sp := tr.begin(name, ws, id)
		work, err := fn()
		sp.end(work)
		return err
	}
	var o *repro.Observation
	var g *repro.Grid
	err := step("distrib.build", func() (int64, error) {
		var err error
		o, err = d.cfg.BuildPlan()
		return 0, err
	})
	if err == nil {
		err = step("distrib.partition", func() (int64, error) {
			sub, err := o.PartitionPlan(spec.Axis, spec.Workers, spec.Index)
			if err == nil {
				o.Plan = sub
			}
			return int64(len(o.Plan.Items)), err
		})
	}
	if err == nil {
		err = step("distrib.fill", func() (int64, error) { return 0, o.FillFromModelPlan(d.model) })
	}
	if err == nil {
		err = step("distrib.grid", func() (int64, error) {
			var err error
			g, _, _, err = o.GridAllStreamed(ctx, nil, repro.FaultConfig{})
			return o.Plan.Stats().NrGriddedVisibilities, err
		})
	}
	if err == nil {
		lo, hi := distrib.NonzeroRowSpan(g)
		d.shipped.Add(int64(hi-lo) * int64(g.N) * 4 * 16)
		err = step("distrib.deliver", func() (int64, error) {
			return 0, distrib.Deliver(ctx, spec, checkpoint.PlanFingerprint(o.Plan), g, 0)
		})
	}
	ws.end(0)
	return err
}

func (d *distribTwo) run(ctx context.Context, w time.Duration, tr *tracer, opBase int64) (*windowResult, error) {
	return closedLoop(w, opBase, func(id int64) opResult {
		var r opResult
		start := time.Now()
		g, sum, err := d.pass(ctx, tr, id)
		if err != nil {
			r.err = err
			return r
		}
		r.wall = time.Since(start)
		r.gridWall, r.gridVis = r.wall, d.planVis
		d.restarts += sum.Restarts
		if sum.Restarts != 0 {
			r.badOut = fmt.Errorf("distributed pass restarted %d workers", sum.Restarts)
		} else if diff := g.MaxAbsDiff(d.ref); diff > 1e-12*d.refPeak {
			r.badOut = fmt.Errorf("reduced grid differs from the serial streamed grid by %g (peak %g)", diff, d.refPeak)
		}
		return r
	}), nil
}

func (d *distribTwo) layers(ix *spanIndex, untraced, traced *windowResult) map[string]float64 {
	m := kernelLayers(ix, d.o.Plan, traced)
	for _, name := range []string{"build", "fill", "grid"} {
		if busy, _, n := ix.busy("distrib." + name); n > 0 {
			m["distrib.worker_"+name+"_ms"] = ms(busy) / float64(n)
		}
	}
	if busy, _, n := ix.busy("distrib.deliver"); n > 0 {
		m["distrib.deliver_ms"] = ms(busy) / float64(n)
	}
	passes := ix.named("distrib.pass")
	var coord, reduce time.Duration
	skew := 0.0
	for _, p := range passes {
		coord += ix.selfTime(p)
		workers := ix.children[p.ID]
		var lastDeliver time.Duration
		lo, hi, sum := time.Duration(math.MaxInt64), time.Duration(0), time.Duration(0)
		for _, w := range workers {
			lo, hi, sum = min(lo, w.dur()), max(hi, w.dur()), sum+w.dur()
			for _, step := range ix.children[w.ID] {
				if step.Name == "distrib.deliver" {
					lastDeliver = max(lastDeliver, step.End)
				}
			}
		}
		if lastDeliver > 0 {
			reduce += p.End - lastDeliver
		}
		if len(workers) > 0 && sum > 0 {
			skew += float64(hi-lo) / (float64(sum) / float64(len(workers)))
		}
	}
	if n := float64(len(passes)); n > 0 {
		m["distrib.coord_ms"] = ms(coord) / n
		m["distrib.reduce_ms"] = ms(reduce) / n
		m["distrib.worker_skew"] = skew / n
		m["distrib.bytes_shipped"] = float64(d.shipped.Load()) / n
	}
	m["distrib.restarts"] = float64(d.restarts)
	m["pass.wall_ms"] = untraced.grid.meanMS()
	return m
}
