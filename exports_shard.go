package repro

import (
	"context"
	"fmt"

	"repro/internal/grid"
)

// Sharded-grid re-exports: the row-band-partitioned uv-grid accessor
// the pass engine commits onto. Most callers only set
// ObservationConfig.GridShards / MaxInflightChunks and never touch
// these types; they are exported for tests and for callers that drive
// the sharded adder/splitter directly.

// ShardedGrid partitions a uv-grid into independently locked row
// bands so concurrent adders and splitters contend only on shared
// bands; see internal/grid.Sharded.
type ShardedGrid = grid.Sharded

// NewShardedGrid wraps g in a sharded accessor with the given number
// of row bands (clamped to [1, GridSize]).
func NewShardedGrid(g *Grid, shards int) *ShardedGrid { return grid.NewSharded(g, shards) }

// GridAllStreamed grids every visibility onto a fresh grid through a
// sharded accessor and returns the grid with the stage times and the
// fault report. The accessor's shard count follows
// ObservationConfig.GridShards (default: one shard per worker); it
// sizes the row-band locks only, and the grid is bit-identical to
// GridAll's at any worker and shard count. With
// ObservationConfig.CheckpointDir set the pass writes durable
// snapshots as it goes; see Observation.ResumeStreamed for continuing
// an interrupted pass.
//
// Cancellation: when ctx is canceled mid-pass the returned error
// matches errors.Is(err, ErrCanceled) (and the context's own
// sentinel) even when the cancellation surfaced inside a retry layer.
// The returned grid is still the partially filled grid: it holds
// exactly the chunks committed before the cancellation — an exact
// plan prefix, every value finite and correctly accumulated — so it
// is suitable for inspection or checkpointing, not for imaging.
func (o *Observation) GridAllStreamed(ctx context.Context, prov ATermProvider, ft FaultConfig) (*Grid, StageTimes, *FaultReport, error) {
	if o.Vis == nil {
		return nil, StageTimes{}, nil, fmt.Errorf("repro: visibilities not allocated")
	}
	g := grid.NewGrid(o.Config.GridSize)
	sh := o.Kernels.NewShardedGrid(g)
	times, rep, err := o.Kernels.GridVisibilitiesStreamed(ctx, o.Plan, o.Vis, prov, sh, ft)
	return g, times, rep, err
}
