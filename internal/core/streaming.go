package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aterm"
	"repro/internal/checkpoint"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/plan"
)

// NewShardedGrid wraps g in a sharded accessor with the configured
// shard count (Params.GridShards, defaulting to one shard per worker).
// The shard count sizes the row-band locks only; it never changes the
// bits a pass produces.
func (k *Kernels) NewShardedGrid(g *grid.Grid) *grid.Sharded {
	return grid.NewSharded(g, k.params.gridShards())
}

// GridVisibilitiesStreamed runs the gridding pass onto the sharded
// grid sh through the pass engine (engine.go), with its streaming
// guarantees spelled out: the plan is processed in chunks of
// Params.StreamChunkItems work items, and at most
// Params.MaxInflightChunks chunks are between gridder and commit at
// once, so peak subgrid memory is bounded by
// MaxInflightChunks x StreamChunkItems subgrids regardless of
// observation length — which is what lets a streamed pass grid
// observations larger than memory. Chunks are committed onto sh in
// plan order by one writer, so the grid is bitwise equal to the serial
// pass at every worker count, shard count, chunk size and window, and
// SplitterSharded stays coherent against a running pass.
//
// With Params.CheckpointDir set the committer writes a durable
// snapshot (grid, chunk cursor, fault counters — see
// internal/checkpoint) every Params.CheckpointEvery committed chunks
// and once more at the end of the plan. ResumeVisibilitiesStreamed
// continues from such a snapshot; its result is bitwise equal to the
// uninterrupted run.
//
// On cancellation the error matches both faulttol.ErrCanceled and the
// context's cause, even when the cancellation surfaced inside a retry
// loop. The grid then holds exactly the chunks committed before the
// cancellation — an exact plan prefix, every value finite and correct
// — so a partial grid is useful for checkpointing but not as an image.
func (k *Kernels) GridVisibilitiesStreamed(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, sh *grid.Sharded, ft faulttol.Config) (StageTimes, *faulttol.Report, error) {
	rep := faulttol.NewReport(ft)
	times, err := k.runPass(ctx, p, vs, prov, sh, nil, ft, rep, 0)
	return times, rep, err
}

// ResumeVisibilitiesStreamed continues a streamed gridding pass whose
// chunks [0, startChunk) are already accumulated onto sh — restored
// from a checkpoint — processing only the remaining chunks. rep
// carries the restored fault counters forward (nil allocates a fresh
// report). The chunking must match the interrupted run
// (StreamChunkItemsResolved); the resumed grid is then bitwise equal
// to an uninterrupted pass.
func (k *Kernels) ResumeVisibilitiesStreamed(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, sh *grid.Sharded, ft faulttol.Config, rep *faulttol.Report, startChunk int) (StageTimes, error) {
	if rep == nil {
		rep = faulttol.NewReport(ft)
	}
	if startChunk > 0 {
		k.ob.checkpointRestored()
	}
	return k.runPass(ctx, p, vs, prov, sh, nil, ft, rep, startChunk)
}

// fireCheckpointHook invokes the crash-injection hook at a checkpoint
// protocol point; chunk is the last committed chunk index (-1 if
// none). The hook may panic by design — the simulated kill must
// unwind the pass, so nothing here recovers.
func (k *Kernels) fireCheckpointHook(ev checkpoint.Event, chunk int) {
	if h := k.params.CheckpointHook; h != nil {
		h(ev, chunk)
	}
}

// writeStreamCheckpoint durably snapshots the pass from the committer:
// chunks [0, cursor) are fully accumulated onto sh, and no other
// goroutine writes the grid or the report while the committer works.
func (k *Kernels) writeStreamCheckpoint(p *plan.Plan, sh *grid.Sharded, cursor int, rep *faulttol.Report) error {
	k.fireCheckpointHook(checkpoint.EventBeforeWrite, cursor-1)
	t0 := time.Now()
	sn := &checkpoint.Snapshot{
		GridSize:   k.params.GridSize,
		Shards:     sh.NumShards(),
		NextChunk:  cursor,
		ChunkItems: k.params.chunkItems(),
		PlanSum:    checkpoint.PlanFingerprint(p),
		Report:     rep.State(),
		Grid:       sh.Master(),
	}
	_, bytes, err := checkpoint.Write(k.params.CheckpointDir, sn, k.params.CheckpointHook)
	if err != nil {
		return fmt.Errorf("core: checkpoint at chunk cursor %d: %w", cursor, err)
	}
	k.ob.checkpointWritten(bytes, t0)
	k.fireCheckpointHook(checkpoint.EventAfterWrite, cursor-1)
	return nil
}

// PeakInflightSubgrids returns the high-water mark the latest gridding
// pass published to the observer's GaugeStreamPeakSubgrids, or 0
// without an observer. Tests use it to check the streaming memory
// bound.
func PeakInflightSubgrids(o *obs.Observer) int64 {
	if o == nil || o.Metrics == nil {
		return 0
	}
	return int64(o.Metrics.Gauge(obs.GaugeStreamPeakSubgrids).Value())
}
