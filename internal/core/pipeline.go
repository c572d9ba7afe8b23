package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aterm"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// VisibilitySet holds the measurement data of one observation: the
// uvw tracks and the 2x2 correlation visibilities of every baseline.
type VisibilitySet struct {
	// Baselines maps baseline indices to station pairs.
	Baselines []uvwsim.Baseline
	// UVW holds the uvw track of each baseline in meters: UVW[b][t].
	UVW [][]uvwsim.UVW
	// Data holds the visibilities: Data[b][t*NrChannels + c].
	Data [][]xmath.Matrix2
	// Flags marks bad samples, parallel to Data; nil means nothing is
	// flagged. Flagged samples are zero-weight: the gridder excludes
	// them and the degridder predicts zeros for them, so corrupt
	// samples degrade sensitivity instead of poisoning the grid.
	Flags [][]bool
	// NrTimesteps and NrChannels give the time/channel dimensions.
	NrTimesteps, NrChannels int
}

// NewVisibilitySet allocates a zeroed visibility set for the given
// baselines and dimensions. The uvw tracks must be filled by the
// caller (typically from uvwsim). Dimension mismatches return an
// error wrapping faulttol.ErrBadInput.
func NewVisibilitySet(baselines []uvwsim.Baseline, uvw [][]uvwsim.UVW, nrChannels int) (*VisibilitySet, error) {
	if len(baselines) != len(uvw) {
		return nil, fmt.Errorf("%w: %d baselines but %d uvw tracks",
			faulttol.ErrBadInput, len(baselines), len(uvw))
	}
	if len(uvw) == 0 || len(uvw[0]) == 0 {
		return nil, fmt.Errorf("%w: empty visibility set", faulttol.ErrBadInput)
	}
	if nrChannels < 1 {
		return nil, fmt.Errorf("%w: %d channels", faulttol.ErrBadInput, nrChannels)
	}
	nt := len(uvw[0])
	vs := &VisibilitySet{
		Baselines:   baselines,
		UVW:         uvw,
		Data:        make([][]xmath.Matrix2, len(baselines)),
		NrTimesteps: nt,
		NrChannels:  nrChannels,
	}
	for b := range vs.Data {
		if len(uvw[b]) != nt {
			return nil, fmt.Errorf("%w: ragged uvw tracks (baseline %d has %d steps, want %d)",
				faulttol.ErrBadInput, b, len(uvw[b]), nt)
		}
		vs.Data[b] = make([]xmath.Matrix2, nt*nrChannels)
	}
	return vs, nil
}

// MustNewVisibilitySet is NewVisibilitySet for callers whose inputs
// are correct by construction; it panics on error.
func MustNewVisibilitySet(baselines []uvwsim.Baseline, uvw [][]uvwsim.UVW, nrChannels int) *VisibilitySet {
	vs, err := NewVisibilitySet(baselines, uvw, nrChannels)
	if err != nil {
		panic(err)
	}
	return vs
}

// NrVisibilities returns the total number of visibilities.
func (vs *VisibilitySet) NrVisibilities() int64 {
	return int64(len(vs.Baselines)) * int64(vs.NrTimesteps) * int64(vs.NrChannels)
}

// EnsureFlags allocates the flag mask if it is still nil.
func (vs *VisibilitySet) EnsureFlags() {
	if vs.Flags != nil {
		return
	}
	vs.Flags = make([][]bool, len(vs.Data))
	for b := range vs.Flags {
		vs.Flags[b] = make([]bool, len(vs.Data[b]))
	}
}

// FlagSample flags the sample of baseline b at time step t, channel c.
func (vs *VisibilitySet) FlagSample(b, t, c int) {
	vs.EnsureFlags()
	vs.Flags[b][t*vs.NrChannels+c] = true
}

// Flagged reports whether the sample at (b, t, c) is flagged.
func (vs *VisibilitySet) Flagged(b, t, c int) bool {
	return vs.Flags != nil && vs.Flags[b][t*vs.NrChannels+c]
}

// NrFlagged counts the flagged samples.
func (vs *VisibilitySet) NrFlagged() int64 {
	var n int64
	for b := range vs.Flags {
		for _, f := range vs.Flags[b] {
			if f {
				n++
			}
		}
	}
	return n
}

// ClearFlags drops the flag mask.
func (vs *VisibilitySet) ClearFlags() { vs.Flags = nil }

// gather copies the visibilities covered by a work item into dst
// (layout [t*item.NrChannels + c]), zeroing flagged samples so they
// enter the gridder with zero weight. Flagged samples are zeroed
// directly while copying — no second pass over the row.
func (vs *VisibilitySet) gather(item plan.WorkItem, dst []xmath.Matrix2) {
	src := vs.Data[item.Baseline]
	if vs.Flags == nil {
		for t := 0; t < item.NrTimesteps; t++ {
			row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
			copy(dst[t*item.NrChannels:(t+1)*item.NrChannels],
				src[row:row+item.NrChannels])
		}
		return
	}
	flags := vs.Flags[item.Baseline]
	for t := 0; t < item.NrTimesteps; t++ {
		row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
		out := dst[t*item.NrChannels : (t+1)*item.NrChannels]
		for c := range out {
			if flags[row+c] {
				out[c] = xmath.Matrix2{}
			} else {
				out[c] = src[row+c]
			}
		}
	}
}

// scatter writes predicted visibilities of a work item back, storing
// zeros for flagged samples (zero-weight on the degridding side) in
// the same pass as the copy.
func (vs *VisibilitySet) scatter(item plan.WorkItem, src []xmath.Matrix2) {
	dst := vs.Data[item.Baseline]
	if vs.Flags == nil {
		for t := 0; t < item.NrTimesteps; t++ {
			row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
			copy(dst[row:row+item.NrChannels],
				src[t*item.NrChannels:(t+1)*item.NrChannels])
		}
		return
	}
	flags := vs.Flags[item.Baseline]
	for t := 0; t < item.NrTimesteps; t++ {
		row := (item.TimeStart+t)*vs.NrChannels + item.Channel0
		in := src[t*item.NrChannels : (t+1)*item.NrChannels]
		for c := range in {
			if flags[row+c] {
				dst[row+c] = xmath.Matrix2{}
			} else {
				dst[row+c] = in[c]
			}
		}
	}
}

// itemUVW returns the uvw slice covered by a work item.
func (vs *VisibilitySet) itemUVW(item plan.WorkItem) []uvwsim.UVW {
	return vs.UVW[item.Baseline][item.TimeStart : item.TimeStart+item.NrTimesteps]
}

// StageTimes records the time spent per pipeline stage, the
// Go-measured analogue of the paper's Fig. 9 runtime distribution.
// Each field is the stage's busy time summed over all workers of the
// pass, so on a parallel pass Total() exceeds the pass's wall time;
// rates of a whole pass belong on wall-clock time instead.
type StageTimes struct {
	Gridder    time.Duration
	Degridder  time.Duration
	SubgridFFT time.Duration
	Adder      time.Duration
	Splitter   time.Duration
}

// Total returns the summed stage time.
func (s StageTimes) Total() time.Duration {
	return s.Gridder + s.Degridder + s.SubgridFFT + s.Adder + s.Splitter
}

// Add accumulates other into s.
func (s *StageTimes) Add(other StageTimes) {
	s.Gridder += other.Gridder
	s.Degridder += other.Degridder
	s.SubgridFFT += other.SubgridFFT
	s.Adder += other.Adder
	s.Splitter += other.Splitter
}

// DefaultWorkGroupSize is the work-group size of the paper's batch
// pipeline (Plan.WorkGroups): the number of work items whose subgrid
// buffers one round keeps resident, as the paper's work groups bound
// the GPU device buffers. The pass engine bounds the same memory with
// StreamChunkItems x MaxInflightChunks instead.
const DefaultWorkGroupSize = 1024

// newATermCache builds the run-level A-term cache; it lives for a
// whole gridding or degridding pass so a map computed once is reused
// by every later item that shares the (station, slot). A nil provider
// yields a nil cache (identity fast path).
func (k *Kernels) newATermCache(prov aterm.Provider) *aterm.Cache {
	if prov == nil {
		return nil
	}
	return aterm.NewCache(prov, k.params.SubgridSize, k.params.ImageSize)
}

// planeOf returns the W-layer shared by every item of a chunk, or -1
// when the chunk is empty or mixes layers (only W-stacked passes plan
// per-layer, so a mixed chunk has no single layer to attribute to).
func planeOf(items []plan.WorkItem) int {
	if len(items) == 0 {
		return -1
	}
	w := items[0].WPlane
	for _, it := range items[1:] {
		if it.WPlane != w {
			return -1
		}
	}
	return w
}

// prefillATerms serially warms the cache with every (station, slot)
// pair the items need. aterm.Cache is not safe for concurrent writes,
// but after this prefill every worker Get is a read-only hit, so the
// workers need no locking.
func (k *Kernels) prefillATerms(cache *aterm.Cache, items []plan.WorkItem, baselines []uvwsim.Baseline) {
	if cache == nil {
		return
	}
	for i := range items {
		b := baselines[items[i].Baseline]
		cache.Get(b.P, items[i].ATermSlot)
		cache.Get(b.Q, items[i].ATermSlot)
	}
}

// GridVisibilities runs the full gridding pass of Fig. 4 — gridder
// kernel, subgrid FFT, adder — over the plan's work items through the
// pass engine (engine.go). The grid is accumulated into (callers zero
// it first for a fresh pass) in plan order, so the result is bitwise
// independent of the worker count. It returns per-stage busy times.
// The context cancels or deadline-bounds the run (the error then wraps
// faulttol.ErrCanceled); item failures abort the run (fail-fast) — use
// GridVisibilitiesFT for other policies.
func (k *Kernels) GridVisibilities(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid) (StageTimes, error) {
	times, _, err := k.GridVisibilitiesFT(ctx, p, vs, prov, g, faulttol.Config{})
	return times, err
}

// GridVisibilitiesFT is GridVisibilities under an explicit
// fault-tolerance policy. A panicking kernel or a non-finite subgrid
// becomes a typed per-item error instead of a crash; depending on
// ft.Policy the item is retried, skipped (graceful degradation,
// accounted in the returned report) or aborts the run. The report is
// non-nil whenever the pipeline ran. With Params.CheckpointDir set the
// pass writes checkpoints like GridVisibilitiesStreamed.
func (k *Kernels) GridVisibilitiesFT(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid, ft faulttol.Config) (StageTimes, *faulttol.Report, error) {
	rep := faulttol.NewReport(ft)
	times, err := k.runPass(ctx, p, vs, prov, grid.NewSharded(g, 1), nil, ft, rep, 0)
	return times, rep, err
}

// DegridVisibilities runs the full degridding pass of Fig. 4 in
// reverse order — splitter, inverse subgrid FFT, degridder — per work
// item through the pass engine. Predicted visibilities overwrite
// vs.Data. The context cancels the run; item failures abort it
// (fail-fast) — use DegridVisibilitiesFT for other policies.
func (k *Kernels) DegridVisibilities(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid) (StageTimes, error) {
	times, _, err := k.DegridVisibilitiesFT(ctx, p, vs, prov, g, faulttol.Config{})
	return times, err
}

// DegridVisibilitiesFT is DegridVisibilities under an explicit
// fault-tolerance policy; skipped items leave their visibility block
// unwritten and are accounted in the returned report.
func (k *Kernels) DegridVisibilitiesFT(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, g *grid.Grid, ft faulttol.Config) (StageTimes, *faulttol.Report, error) {
	rep := faulttol.NewReport(ft)
	times, err := k.runPass(ctx, p, vs, prov, nil, g, ft, rep, 0)
	return times, rep, err
}

// lookupATerms resolves a work item's two station maps from the warm
// run-level cache (every Get here is a hit; see prefillATerms).
func (k *Kernels) lookupATerms(cache *aterm.Cache, baselines []uvwsim.Baseline, item plan.WorkItem) (ap, aq []xmath.Matrix2) {
	if cache == nil {
		return nil, nil
	}
	b := baselines[item.Baseline]
	return cache.Get(b.P, item.ATermSlot), cache.Get(b.Q, item.ATermSlot)
}

func (k *Kernels) checkPlan(p *plan.Plan, vs *VisibilitySet) error {
	switch {
	case p.GridSize != k.params.GridSize:
		return fmt.Errorf("core: plan grid size %d != kernel grid size %d", p.GridSize, k.params.GridSize)
	case p.SubgridSize != k.params.SubgridSize:
		return fmt.Errorf("core: plan subgrid size %d != kernel subgrid size %d", p.SubgridSize, k.params.SubgridSize)
	case p.ImageSize != k.params.ImageSize:
		return fmt.Errorf("core: plan image size %g != kernel image size %g", p.ImageSize, k.params.ImageSize)
	case len(p.Frequencies) != len(k.params.Frequencies):
		return fmt.Errorf("core: plan has %d channels, kernels have %d", len(p.Frequencies), len(k.params.Frequencies))
	case vs.NrChannels != len(k.params.Frequencies):
		return fmt.Errorf("core: visibility set has %d channels, kernels have %d", vs.NrChannels, len(k.params.Frequencies))
	}
	return nil
}

// ctxErr converts a context error into the faulttol taxonomy.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return faulttol.Canceled(err)
	}
	return nil
}
