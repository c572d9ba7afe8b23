// Command idgperf is the repository benchmark. It runs one named IDG
// workload in this process for a fixed number of seconds, checks every
// output the program produces, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics of a traced replay — as the
// last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash idgperf/run.sh --workload dense-cycle --seed 1 --seconds 12 --trace 0
//	bash idgperf/run.sh --workload sparse-stream --steady 5 --seconds 12
//
// The seed only generates the sky model (source offsets and fluxes);
// the program under test receives the generated visibilities. See
// workloads.go for what each workload runs and why it was chosen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec names a metric, its unit and which direction is better.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload. An op is one major cycle (dense-cycle), one streamed pass
// (sparse-stream), one session create→delete (server-sessions) or one
// distributed pass (distrib-2w).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"grid_mvis_s", "MVis/s", "higher"},
	{"op_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// A run sets its workload up at least minSetups times and until
// minSetupTime has passed (at most maxSetups times); setup_s is the
// median, which damps the host's drift on a single set-up.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idgperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated sky model")
	seconds := fs.Int("seconds", 12, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced replay run reporting per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and report each metric's quartiles")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its chrome://tracing JSON and layer table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "idgperf: need --workload {%s}, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *steady > 0 {
		return steadiness(w, *seed, *seconds, *steady, stdout, stderr)
	}
	ctx := context.Background()
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traceDir, stdout)
	} else {
		rep, err = untracedRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "idgperf: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "idgperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupTimed sets the workload up at least minN and at most maxN times
// (see minSetupTime), keeping the last instance, and returns it with
// the median set-up time. Each set-up includes the warm-up op.
func setupTimed(ctx context.Context, w *workload, seed int64, tr *tracer, minN, maxN int) (instance, float64, error) {
	var inst instance
	var times []float64
	begin := time.Now()
	for i := 0; i < maxN && (i < minN || time.Since(begin) < minSetupTime); i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Return the previous set-up's memory before timing the next,
		// so set-ups do not pay for each other's garbage.
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		next, err := w.setup(ctx, seed, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		inst = next
	}
	sort.Float64s(times)
	return inst, times[len(times)/2], nil
}

// untracedRun measures the end-to-end metrics with tracing off.
func untracedRun(ctx context.Context, w *workload, seed int64, d time.Duration, out io.Writer) (*report, error) {
	describe(w, out)
	inst, setupS, err := setupTimed(ctx, w, seed, nil, minSetups, maxSetups)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if err := inst.reference(ctx); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refBefore := hostRef()
	res, err := inst.run(ctx, d, nil, 0)
	if err != nil {
		return nil, err
	}
	refAfter := hostRef()
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	if res.grid.passes == 0 || len(res.opWalls) == 0 {
		return nil, errors.New("the window completed no op")
	}
	rep := &report{
		Correct:   res.counts.failed() == 0,
		Attempted: res.counts.attempted,
		Failed:    res.counts.failed(),
		Metrics: map[string]metric{
			"setup_s":     {setupS, "s"},
			"grid_mvis_s": {res.grid.mvisPerSec(), "MVis/s"},
			"op_ms":       {meanMS(res.opWalls), "ms"},
			"peak_rss_mb": {float64(rss) / (1 << 20), "MB"},
		},
	}
	// Workload-specific numbers a user sees but that do not exist on
	// every workload: printed for reading, not part of the gated set.
	fmt.Fprintf(out, "# %-24s %14.4f %s\n", "error_rate", res.counts.errorRate(), "fraction")
	fmt.Fprintf(out, "# %-24s %14d %s (errored %d, refused %d, bad output %d)\n", "ops_attempted",
		res.counts.attempted, "count", res.counts.errored, res.counts.refused, res.counts.badOutput)
	for _, k := range sortedKeys(res.extra) {
		fmt.Fprintf(out, "# %-24s %14.4f %s\n", k, res.extra[k].Value, res.extra[k].Unit)
	}
	fmt.Fprintf(out, "# %-24s %14.4f ms (before) %.4f ms (after); diagnostic only\n", "host.ref_ms", refBefore, refAfter)
	// The spread of ops inside one window, against the spread between
	// runs, tells scheduler noise from host drift.
	walls := append([]time.Duration(nil), res.opWalls...)
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	fmt.Fprintf(out, "# %-24s %14.4f ms min, %.4f median, %.4f max over %d ops\n", "op_ms.within_run",
		ms(walls[0]), ms(walls[len(walls)/2]), ms(walls[len(walls)-1]), len(walls))
	for _, m := range endToEnd {
		fmt.Fprintf(out, "# %-24s %14.4f %s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
	return rep, nil
}

// describe prints the workload's provenance.
func describe(w *workload, out io.Writer) {
	fmt.Fprintf(out, "# workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "# shape: %s; busy threads %d, connections %d, host nproc %d\n",
		w.shape, w.threads, w.conns, runtime.NumCPU())
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSS reads the process's VmHWM.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	return parseVmHWM(f)
}

// hostRef times a fixed scalar loop. It is a drift diagnostic only:
// dividing the metrics by it made them noisier, so nothing is
// normalised by it and nothing gates on it.
func hostRef() float64 {
	start := time.Now()
	acc := 0.0
	for i := 0; i < 2_000_000; i++ {
		acc += math.Sin(float64(i) * 1e-3)
	}
	d := time.Since(start)
	refSink = acc
	return ms(d)
}

// refSink keeps the compiler from dropping the reference loop.
var refSink float64
