package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/faulttol"
	"repro/internal/plan"
)

// withParams returns a copy of o whose kernels are rebuilt with
// mutate applied to its parameters. The copy shares o's plan and
// visibilities, which the passes only read.
func withParams(t *testing.T, o *Observation, mutate func(*core.Params)) *Observation {
	t.Helper()
	p := o.Kernels.Params()
	mutate(&p)
	k, err := core.NewKernels(p)
	if err != nil {
		t.Fatal(err)
	}
	c := *o
	c.Kernels = k
	c.Config.CheckpointDir, c.Config.CheckpointEvery = p.CheckpointDir, p.CheckpointEvery
	return &c
}

// TestGoldenDeterminismTable pins the pass engine's guarantee: chunks
// commit onto the grid in plan order through one writer, so GridAll,
// GridAllStreamed and a killed-then-resumed streamed pass all hash to
// the committed golden grid for every Workers, GridShards,
// StreamChunkItems and MaxInflightChunks value.
func TestGoldenDeterminismTable(t *testing.T) {
	want := goldenSHA(t)
	base := goldenObservation(t)
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{1, 3} {
			for _, chunk := range []int{8, 0} {
				for _, inflight := range []int{1, 2} {
					name := fmt.Sprintf("workers=%d/shards=%d/chunk=%d/inflight=%d", workers, shards, chunk, inflight)
					t.Run(name, func(t *testing.T) {
						set := func(p *core.Params) {
							p.Workers, p.GridShards = workers, shards
							p.StreamChunkItems, p.MaxInflightChunks = chunk, inflight
						}
						o := withParams(t, base, set)
						g, _, err := o.GridAll(context.Background(), nil)
						if err != nil {
							t.Fatal(err)
						}
						if got := fingerprintGrid(g).SHA256; got != want {
							t.Errorf("GridAll hash %s, want golden %s", got, want)
						}
						g, _, _, err = o.GridAllStreamed(context.Background(), nil, FaultConfig{})
						if err != nil {
							t.Fatal(err)
						}
						if got := fingerprintGrid(g).SHA256; got != want {
							t.Errorf("GridAllStreamed hash %s, want golden %s", got, want)
						}

						// Kill the checkpointed pass when chunk 3 commits (or
						// at the last chunk when the plan has fewer), then
						// resume from what the kill left behind.
						dir := t.TempDir()
						kill := min(3, goldenChunks(o)-1)
						killed := withParams(t, base, func(p *core.Params) {
							set(p)
							p.CheckpointDir, p.CheckpointEvery = dir, 2
							p.CheckpointHook = faultinject.CrashHook(CheckpointChunkCommitted, kill)
						})
						func() {
							defer func() {
								if _, ok := recover().(faultinject.Kill); !ok {
									t.Fatal("the streamed pass did not unwind with the injected kill")
								}
							}()
							killed.GridAllStreamed(context.Background(), nil, FaultConfig{})
						}()
						resumed := withParams(t, base, func(p *core.Params) {
							set(p)
							p.CheckpointDir, p.CheckpointEvery = dir, 2
						})
						g, _, rep, err := resumed.ResumeStreamed(context.Background(), nil, FaultConfig{})
						if err != nil {
							t.Fatal(err)
						}
						if got := fingerprintGrid(g).SHA256; got != want {
							t.Errorf("ResumeStreamed hash %s, want golden %s", got, want)
						}
						if rep.ItemsProcessed != len(o.Plan.Items) {
							t.Errorf("resumed report counts %d of %d items", rep.ItemsProcessed, len(o.Plan.Items))
						}
					})
				}
			}
		}
	}
}

// TestPredictedVisibilitiesWorkerInvariant: degridding items write
// disjoint visibilities from a read-only grid, so the predicted
// visibilities are bitwise equal at every worker count.
func TestPredictedVisibilitiesWorkerInvariant(t *testing.T) {
	base := goldenObservation(t)
	g, _, err := base.GridAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ref *VisibilitySet
	for _, workers := range []int{1, 2, 4} {
		o := withParams(t, base, func(p *core.Params) { p.Workers = workers })
		vs, err := NewVisibilitySet(o.Vis.Baselines, o.Vis.UVW, o.Vis.NrChannels)
		if err != nil {
			t.Fatal(err)
		}
		o.Vis = vs
		if _, err := o.DegridAll(context.Background(), nil, g); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = vs
			continue
		}
		for b := range vs.Data {
			for i, v := range vs.Data[b] {
				if v != ref.Data[b][i] {
					t.Fatalf("workers=%d: baseline %d sample %d = %v, workers=1 predicted %v",
						workers, b, i, v, ref.Data[b][i])
				}
			}
		}
	}
}

// TestBatchPassesHonorRetryBackoff: GridAllFT and DegridAllFT retry a
// failing item through the same attempt loop as the streamed pass, so
// they sleep the configured backoff and stop retrying once the run's
// budget is spent, recording the exhaustion note.
func TestBatchPassesHonorRetryBackoff(t *testing.T) {
	o := goldenObservation(t)
	victim := o.Plan.Items[0]
	ft := FaultConfig{
		Policy:       faulttol.Retry,
		MaxRetries:   5,
		RetryBackoff: 20 * time.Millisecond,
		RetryBudget:  20 * time.Millisecond, // covers attempt 2's delay only
		Hook: func(item plan.WorkItem, attempt int) {
			if item == victim {
				panic("permanent injected fault")
			}
		},
	}
	g, _, err := o.GridAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	passes := map[string]func() (*FaultReport, error){
		"GridAllFT": func() (*FaultReport, error) {
			_, _, rep, err := o.GridAllFT(context.Background(), nil, ft)
			return rep, err
		},
		"DegridAllFT": func() (*FaultReport, error) {
			_, rep, err := o.DegridAllFT(context.Background(), nil, g, ft)
			return rep, err
		},
	}
	for name, pass := range passes {
		start := time.Now()
		rep, err := pass()
		elapsed := time.Since(start)
		var ie *faulttol.ItemError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: error %v is not an ItemError", name, err)
		}
		if ie.Attempts < 2 || ie.Attempts >= 1+ft.MaxRetries {
			t.Errorf("%s: %d attempts, want at least one retry and fewer than the %d granted",
				name, ie.Attempts, 1+ft.MaxRetries)
		}
		if elapsed < ft.RetryBackoff {
			t.Errorf("%s: finished in %v without sleeping the %v backoff", name, elapsed, ft.RetryBackoff)
		}
		found := false
		for _, n := range rep.Notes {
			if n == "faulttol: retry backoff budget exhausted; remaining failures were not retried" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: report notes %v lack the budget-exhaustion note", name, rep.Notes)
		}
	}
}
