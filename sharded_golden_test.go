package repro

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
)

// shardedGoldenObservation is goldenObservation with the given shard
// count: same pinned dataset and serial reference kernels. The
// streamed pass must reproduce the committed golden hash bit-for-bit —
// chunking and sharding are pure reorganizations of the same serial
// arithmetic.
func shardedGoldenObservation(t *testing.T, shards int) *Observation {
	t.Helper()
	o := goldenObservation(t)
	p := o.Kernels.Params()
	p.GridShards = shards
	k, err := core.NewKernels(p)
	if err != nil {
		t.Fatal(err)
	}
	o.Kernels = k
	return o
}

// TestShardedGoldenConformance pins the tentpole's equivalence claim
// to the committed golden fingerprint: the streamed, sharded gridding
// pass at one shard hashes to exactly the bits of the classic serial
// pipeline recorded in testdata/golden_grid.json.
func TestShardedGoldenConformance(t *testing.T) {
	o := shardedGoldenObservation(t, 1)
	g, _, rep, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded() {
		t.Fatalf("clean golden run degraded: %s", rep)
	}
	got := fingerprintGrid(g)
	if got.Nonzero == 0 {
		t.Fatal("streamed gridding produced an all-zero grid")
	}

	data, err := os.ReadFile(goldenGridFile)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenGridConformance -update .` to create it)", err)
	}
	var want goldenGrid
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.SHA256 != want.SHA256 {
		t.Errorf("streamed grid hash %s, want golden %s\n got: %+v\nwant: %+v",
			got.SHA256, want.SHA256, got, want)
	}
}

// TestShardedGoldenMultiShard: with several shards and several
// workers the pass still commits in plan order through one writer, so
// the grid is bitwise equal to the serial reference.
func TestShardedGoldenMultiShard(t *testing.T) {
	ref := goldenObservation(t)
	refGrid, _, err := ref.GridAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{3, 5} {
		o := shardedGoldenObservation(t, shards)
		p := o.Kernels.Params()
		p.Workers = 4
		p.StreamChunkItems = 8
		k, err := core.NewKernels(p)
		if err != nil {
			t.Fatal(err)
		}
		o.Kernels = k
		g, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if d := g.MaxAbsDiff(refGrid); d != 0 {
			t.Errorf("shards=%d: streamed grid differs bitwise from the serial golden grid (max diff %g)",
				shards, d)
		}
	}
}
