package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro"
	"repro/internal/perfmodel"
)

// perLayer lists every per-layer metric of a traced run with its unit.
// A workload reports 0 for a layer it does not exercise. Busy and wall
// times are per op (one gridding pass per op on every workload; one
// degridding pass, two grid FFTs and one CLEAN per dense-cycle op).
var perLayer = []metricSpec{
	{"plan.build_ms", "ms", "lower"},
	{"plan.items", "count", "lower"},
	{"plan.vis_per_item", "count", "higher"},
	{"fill.ms", "ms", "lower"},
	{"gridder.busy_ms", "ms", "lower"},
	{"gridder.mvis_s", "MVis/s", "higher"},
	{"gridder.gops_s", "GOps/s", "higher"},
	{"degridder.busy_ms", "ms", "lower"},
	{"degridder.mvis_s", "MVis/s", "higher"},
	{"degridder.gops_s", "GOps/s", "higher"},
	{"aterm.evals", "count", "lower"},
	{"aterm.busy_ms", "ms", "lower"},
	{"subgrid_fft.busy_ms", "ms", "lower"},
	{"subgrid_fft.subgrids_s", "1/s", "higher"},
	{"adder.busy_ms", "ms", "lower"},
	{"adder.subgrids_s", "1/s", "higher"},
	{"splitter.busy_ms", "ms", "lower"},
	{"grid_fft.busy_ms", "ms", "lower"},
	{"clean.busy_ms", "ms", "lower"},
	{"clean.iterations", "count", "lower"},
	{"pass.wall_ms", "ms", "lower"},
	{"pass.stage_busy_ms", "ms", "lower"},
	{"pass.unattributed_ms", "ms", "lower"},
	{"pass.parallel_eff", "fraction", "higher"},
	{"server.create_ms", "ms", "lower"},
	{"server.stream_ms", "ms", "lower"},
	{"server.finalize_ms", "ms", "lower"},
	{"server.fetch_ms", "ms", "lower"},
	{"server.frames_per_session", "count", "lower"},
	{"server.bytes_per_session", "B", "lower"},
	{"server.plan_cache_hit_ratio", "fraction", "higher"},
	{"server.refused", "count", "lower"},
	{"distrib.coord_ms", "ms", "lower"},
	{"distrib.worker_build_ms", "ms", "lower"},
	{"distrib.worker_fill_ms", "ms", "lower"},
	{"distrib.worker_grid_ms", "ms", "lower"},
	{"distrib.deliver_ms", "ms", "lower"},
	{"distrib.reduce_ms", "ms", "lower"},
	{"distrib.bytes_shipped", "B", "lower"},
	{"distrib.worker_skew", "fraction", "lower"},
	{"distrib.restarts", "count", "lower"},
	{"runtime.alloc_mb_per_pass", "MB", "lower"},
	{"runtime.gc_cycles_per_pass", "count", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"host.ref_ms", "ms", "lower"},
	{"workload.cycle_s", "s", "lower"},
	{"workload.degrid_mvis_s", "MVis/s", "higher"},
	{"workload.session_p50_ms", "ms", "lower"},
	{"workload.session_p95_ms", "ms", "lower"},
	{"workload.session_samples", "count", "higher"},
	{"workload.error_rate", "fraction", "lower"},
	{"trace.untraced_grid_mvis_s", "MVis/s", "higher"},
	{"trace.traced_grid_mvis_s", "MVis/s", "higher"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// tracedRun sets the workload up once with spans on, runs an untraced
// window of length d and then a traced replay window of length d, and
// reports the per-layer metrics. The spans and the layer table are
// written to traceDir.
func tracedRun(ctx context.Context, w *workload, seed int64, d time.Duration, traceDir string, out io.Writer) (*report, error) {
	describe(w, out)
	tr := newTracer()
	inst, _, err := setupTimed(ctx, w, seed, tr, 1, 1)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if err := inst.reference(ctx); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refBefore := hostRef()
	rt0 := readRuntime()
	untraced, err := inst.run(ctx, d, nil, 0)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	const tracedOpBase = 1000000
	traced, err := inst.run(ctx, d, tr, tracedOpBase)
	if err != nil {
		return nil, err
	}
	if untraced.grid.passes == 0 || traced.grid.passes == 0 {
		return nil, errors.New("a window completed no op")
	}
	spans := tr.snapshot()
	ix := indexSpans(spans)
	m := inst.layers(ix, untraced, traced)
	if busy, _, n := ix.busy("plan.build"); n > 0 {
		m["plan.build_ms"] = ms(busy) / float64(n)
	}
	if busy, _, n := ix.busy("fill"); n > 0 {
		m["fill.ms"] = ms(busy) / float64(n)
	}
	passes := float64(untraced.grid.passes)
	m["runtime.alloc_mb_per_pass"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20) / passes
	m["runtime.gc_cycles_per_pass"] = (rt1.gcCycles - rt0.gcCycles) / passes
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	m["host.ref_ms"] = refBefore
	var counts opCounts
	counts.add(untraced.counts)
	counts.add(traced.counts)
	m["workload.error_rate"] = counts.errorRate()
	u, t := untraced.grid.mvisPerSec(), traced.grid.mvisPerSec()
	m["trace.untraced_grid_mvis_s"] = u
	m["trace.traced_grid_mvis_s"] = t
	m["trace.overhead_frac"] = (u - t) / u

	rep := &report{
		Correct:   counts.failed() == 0,
		Attempted: counts.attempted,
		Failed:    counts.failed(),
		Metrics:   make(map[string]metric, len(perLayer)),
	}
	for _, spec := range perLayer {
		rep.Metrics[spec.Name] = metric{m[spec.Name], spec.Unit}
		fmt.Fprintf(out, "# %-30s %16.4f %s\n", spec.Name, m[spec.Name], spec.Unit)
	}
	fmt.Fprintf(out, "# traced vs untraced grid rate: %.4f vs %.4f MVis/s (tracing overhead %.1f%%)\n", t, u, 100*(u-t)/u)
	if err := writeTrace(traceDir, w.name, seed, spans, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), traceDir)
	return rep, nil
}

// writeTrace stores the chrome://tracing JSON and the layer table.
func writeTrace(dir, name string, seed int64, spans []span, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := writeFile(base+".trace.json", func(w io.Writer) error { return writeChrome(w, spans) }); err != nil {
		return err
	}
	return writeFile(base+".layers.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep.Metrics)
	})
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// kernelLayers derives the kernel and stage metrics common to every
// workload that replays gridding passes in the benchmark's process.
func kernelLayers(ix *spanIndex, p *repro.Plan, traced *windowResult) map[string]float64 {
	m := make(map[string]float64)
	st := p.Stats()
	m["plan.items"] = float64(st.NrSubgrids)
	if st.NrSubgrids > 0 {
		m["plan.vis_per_item"] = float64(st.NrGriddedVisibilities) / float64(st.NrSubgrids)
	}
	ds := perfmodel.Dataset{
		SubgridSize:          p.SubgridSize,
		NrSubgrids:           float64(st.NrSubgrids),
		NrVisibilities:       float64(st.NrGriddedVisibilities),
		TimestepSubgridPairs: float64(st.NrTimestepSubgridPairs),
	}
	ops := float64(traced.grid.passes)
	kernel := func(name string, opsPerPass float64) {
		busy, vis, _ := ix.busy(name)
		if busy <= 0 {
			return
		}
		m[name+".busy_ms"] = ms(busy) / ops
		m[name+".mvis_s"] = float64(vis) / busy.Seconds() / 1e6
		// Computed from the paper's operation count, not measured.
		passes := float64(vis) / ds.NrVisibilities
		m[name+".gops_s"] = opsPerPass * passes / busy.Seconds() / 1e9
	}
	kernel("gridder", perfmodel.GridderCounts(ds).Ops)
	kernel("degridder", perfmodel.DegridderCounts(ds).Ops)
	stage := func(name, rate string) {
		busy, n, _ := ix.busy(name)
		m[name+".busy_ms"] = ms(busy) / ops
		if rate != "" && busy > 0 {
			m[name+"."+rate] = float64(n) / busy.Seconds()
		}
	}
	stage("subgrid_fft", "subgrids_s")
	stage("adder", "subgrids_s")
	stage("splitter", "")
	stage("grid_fft", "")
	stage("clean", "")
	_, iters, _ := ix.busy("clean")
	m["clean.iterations"] = float64(iters) / ops
	busy, evals, _ := ix.busy("aterm")
	m["aterm.busy_ms"] = ms(busy) / ops
	m["aterm.evals"] = float64(evals) / ops
	return m
}

// passLayers fills the pass.* metrics for passes recorded as spans
// called passName. The replay's stage time is the part of each pass
// span its stage spans cover; whatever the untraced pass took beyond
// that is what the scheduler itself costs.
func passLayers(m map[string]float64, ix *spanIndex, passName string, untracedWallMS float64) {
	passes := ix.named(passName)
	if len(passes) == 0 {
		return
	}
	var stageWall, stageBusy, wall time.Duration
	for _, p := range passes {
		stageWall += ix.childCovered(p)
		wall += p.dur()
		for _, c := range ix.children[p.ID] {
			stageBusy += ix.busyUnder(c)
		}
	}
	n := float64(len(passes))
	m["pass.stage_busy_ms"] = ms(stageBusy) / n
	m["pass.unattributed_ms"] = untracedWallMS - ms(stageWall)/n
	if wall > 0 {
		m["pass.parallel_eff"] = float64(stageBusy) / float64(wall)
	}
}

// busyUnder is a stage span's busy time: the summed durations of its
// children when it fanned out into per-item spans, else its own
// duration.
func (ix *spanIndex) busyUnder(s span) time.Duration {
	kids := ix.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	var d time.Duration
	for _, k := range kids {
		d += ix.busyUnder(k)
	}
	return d
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}
