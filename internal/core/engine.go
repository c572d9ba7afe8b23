package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/aterm"
	"repro/internal/checkpoint"
	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/plan"
)

// The pass engine is the one scheduler behind every gridding and
// degridding pass (Fig. 4 of the paper). Work items flow through it
// one at a time: workers pull items in plan order from one cursor and
// run the whole per-item pipeline on their own subgrid — gather,
// gridder, finite check and subgrid FFT for gridding; split, inverse
// subgrid FFT, degridder and scatter for degridding. There are no
// stage barriers, so no worker idles at the tail of a stage.
//
// The plan is cut into chunks of StreamChunkItems items. The worker
// that completes the lowest uncommitted chunk commits it, and every
// completed chunk after it, in plan order: a gridding commit adds the
// chunk's subgrids onto the grid item by item, so the grid has exactly
// one writer and every pixel accumulates in plan order. The grid is
// therefore bitwise equal to the serial pass for every worker count,
// shard count, chunk size and in-flight window, and a pass that stops
// early leaves an exact plan prefix on the grid. Commit also folds the
// chunk's item outcomes into the fault report in plan order, and is
// the only point where checkpoints are written.
//
// A pull from chunk c waits until c < committed + MaxInflightChunks,
// so at most MaxInflightChunks x StreamChunkItems subgrids are alive
// at once.

// itemOutcome is one work item's state between its worker and the
// commit of its chunk. A slot is written by the worker that pulled the
// item and read by the committer after the item is finished; the
// engine mutex orders the two.
type itemOutcome struct {
	sg       *grid.Subgrid       // gridded uv subgrid awaiting commit
	attempts int                 // attempts of a completed item
	skip     *faulttol.ItemError // set when SkipAndFlag dropped the item
}

// chunkTrace accumulates one chunk's per-stage busy time for its
// stage spans under the engine mutex; it is only allocated when
// observation is on.
type chunkTrace struct {
	start time.Time
	busy  StageTimes
}

// engine is the state of one pass.
type engine struct {
	k      *Kernels
	runCtx context.Context
	cancel context.CancelFunc

	items      []plan.WorkItem // the items still to run, from chunk base on
	base       int             // plan chunk index of items[0]
	chunkItems int
	window     int
	par        int // pixel-tile parallelism per item (see runTiles)

	ft     faulttol.Config
	rep    *faulttol.Report
	budget *faulttol.BackoffBudget
	vs     *VisibilitySet
	cache  *aterm.Cache
	stage  obs.Stage // item stage of the pass: StageGrid or StageDegrid

	// Exactly one of dst (gridding) and src (degridding) is set.
	dst *grid.Sharded
	src *grid.Grid

	// Checkpointing (gridding only): the plan the snapshot fingerprints
	// and the period in chunks (0 = off).
	p         *plan.Plan
	ckptEvery int

	outcomes []itemOutcome
	traces   []chunkTrace

	mu         sync.Mutex
	cond       sync.Cond
	next       int   // next item to hand out
	committed  int   // chunks committed, relative to base
	committing bool  // a worker is committing
	left       []int // per chunk: items not yet finished
	live, peak int   // pulled but uncommitted items
	times      StageTimes
	firstErr   error
	panicked   bool
	panicVal   any
}

// runPass runs items [startChunk*chunkItems, len) of p through the
// engine: gridding onto dst when it is non-nil, otherwise degridding
// from src into vs.
func (k *Kernels) runPass(ctx context.Context, p *plan.Plan, vs *VisibilitySet, prov aterm.Provider, dst *grid.Sharded, src *grid.Grid, ft faulttol.Config, rep *faulttol.Report, startChunk int) (StageTimes, error) {
	if err := k.checkPlan(p, vs); err != nil {
		return StageTimes{}, err
	}
	n := k.params.GridSize
	if dst != nil && dst.Master().N != n {
		return StageTimes{}, fmt.Errorf("core: grid size %d != kernel grid size %d", dst.Master().N, n)
	}
	if src != nil && src.N != n {
		return StageTimes{}, fmt.Errorf("core: grid size %d != kernel grid size %d", src.N, n)
	}
	ci := k.params.chunkItems()
	nChunks := (len(p.Items) + ci - 1) / ci
	if startChunk < 0 || startChunk > nChunks {
		return StageTimes{}, fmt.Errorf("core: resume cursor %d outside the plan's %d chunks", startChunk, nChunks)
	}
	e := &engine{
		k:          k,
		items:      p.Items[min(startChunk*ci, len(p.Items)):],
		base:       startChunk,
		chunkItems: ci,
		window:     k.params.maxInflight(),
		par:        1,
		ft:         ft,
		rep:        rep,
		budget:     faulttol.NewBackoffBudget(ft),
		vs:         vs,
		stage:      obs.StageDegrid,
		dst:        dst,
		src:        src,
		p:          p,
	}
	if len(e.items) == 0 {
		return StageTimes{}, ctxErr(ctx)
	}
	if dst != nil {
		e.stage = obs.StageGrid
		if k.params.checkpointEnabled() {
			e.ckptEvery = k.params.checkpointEvery()
		}
	}
	// The A-term cache is not safe for concurrent writes: warm it for
	// every item up front, so each worker Get is a read-only hit.
	e.cache = k.newATermCache(prov)
	k.prefillATerms(e.cache, e.items, vs.Baselines)

	workers := k.params.workers()
	if workers > len(e.items) {
		// Fewer items than workers: the spare workers pick up pixel
		// tiles of the running items instead of idling.
		if !k.params.DisablePixelTiling {
			e.par = (workers + len(e.items) - 1) / len(e.items)
		}
		workers = len(e.items)
	}
	e.outcomes = make([]itemOutcome, len(e.items))
	e.left = make([]int, nChunks-startChunk)
	for c := range e.left {
		e.left[c] = min(ci, len(e.items)-c*ci)
	}
	if k.ob.enabled() {
		e.traces = make([]chunkTrace, len(e.left))
	}
	e.cond.L = &e.mu
	e.runCtx, e.cancel = context.WithCancel(ctx)
	defer e.cancel()
	// Wake workers waiting for the window when the pass stops.
	stop := context.AfterFunc(e.runCtx, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	defer stop()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go e.work(w, &wg)
	}
	e.work(0, &wg)
	wg.Wait()

	for _, o := range e.outcomes {
		if o.sg != nil {
			k.putSubgrid(o.sg)
		}
	}
	if dst != nil {
		k.ob.streamPeak(int64(e.peak))
	}
	if e.budget.Exhausted() {
		rep.AddNote("faulttol: retry backoff budget exhausted; remaining failures were not retried")
	}
	if e.panicked {
		// A checkpoint hook (or a bug outside the per-item recovery
		// scope) panicked on some worker; re-raise it on the caller's
		// goroutine now that every worker has stopped.
		panic(e.panicVal)
	}
	if e.firstErr != nil {
		return e.times, e.firstErr
	}
	return e.times, ctxErr(ctx)
}

// work is one worker: pull, run, finish — until the plan is exhausted
// or the pass stops. A panic that escapes the per-item recovery scope
// stops the pass and is re-raised by runPass.
func (e *engine) work(worker int, wg *sync.WaitGroup) {
	var times StageTimes
	s := e.k.getScratch()
	defer wg.Done()
	defer func() {
		e.k.putScratch(s)
		r := recover()
		e.mu.Lock()
		e.times.Add(times)
		if r != nil && !e.panicked {
			e.panicked, e.panicVal = true, r
		}
		e.mu.Unlock()
		if r != nil {
			e.cancel()
		}
	}()
	for {
		i, ok := e.pull()
		if !ok {
			return
		}
		busy, ok := e.run(worker, i, s)
		times.Add(busy)
		if !ok {
			return
		}
		e.finish(i, busy, &times)
	}
}

// pull hands out the next item in plan order, waiting while its chunk
// lies beyond the in-flight window.
func (e *engine) pull() (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.runCtx.Err() != nil || e.next >= len(e.items) {
			return 0, false
		}
		if e.next/e.chunkItems < e.committed+e.window {
			break
		}
		e.cond.Wait()
	}
	i := e.next
	e.next++
	e.live++
	e.peak = max(e.peak, e.live)
	if e.traces != nil && i%e.chunkItems == 0 {
		e.traces[i/e.chunkItems].start = time.Now()
	}
	return i, true
}

// run executes item i under the fault-tolerance policy: panic
// isolation, bounded retries with budgeted backoff, no retry of bad
// input. It returns the item's busy time per stage, and false when the
// item was abandoned (the pass is stopping) rather than completed or
// skipped.
func (e *engine) run(worker, i int, s *scratch) (busy StageTimes, ok bool) {
	k, ft := e.k, e.ft
	item := e.items[i]
	t0 := k.ob.now()
	var err error
	made := 0
	for a := 1; a <= ft.Attempts(); a++ {
		if e.runCtx.Err() != nil {
			break
		}
		made = a
		err = faulttol.Run(func() error {
			if ft.Hook != nil {
				ft.Hook(item, a)
			}
			if e.dst != nil {
				return e.grid(i, item, s, &busy)
			}
			return e.degrid(item, s, &busy)
		})
		if err == nil {
			break
		}
		k.ob.attemptFailed(err)
		if errors.Is(err, faulttol.ErrBadInput) || e.runCtx.Err() != nil {
			break
		}
		// Deterministic exponential backoff before the next attempt,
		// metered against the pass's retry budget: once the budget is
		// spent the item takes its terminal path now.
		if a < ft.Attempts() && !e.budget.Sleep(e.runCtx, ft.BackoffDelay(a+1)) {
			break
		}
	}
	out := &e.outcomes[i]
	if err == nil && made > 0 {
		out.attempts = made
		k.ob.itemDone(e.stage, e.base+i/e.chunkItems, worker, i, item, made, t0)
		return busy, true
	}
	if out.sg != nil {
		// A failed attempt leaves a poisoned subgrid behind.
		k.putSubgrid(out.sg)
		out.sg = nil
	}
	if e.runCtx.Err() != nil {
		// The pass is stopping — canceled by the caller or by another
		// item's failure; this item is a casualty, not a cause.
		return busy, false
	}
	ie := &faulttol.ItemError{
		Baseline:  item.Baseline,
		TimeStart: item.TimeStart,
		Channel0:  item.Channel0,
		Attempts:  made,
		Err:       err,
	}
	if ft.Policy == faulttol.SkipAndFlag {
		out.skip = ie
		return busy, true
	}
	e.fail(ie)
	return busy, false
}

// grid is the gridding item body: gather, gridder, finite check and
// forward subgrid FFT into the item's own subgrid.
func (e *engine) grid(i int, item plan.WorkItem, s *scratch, busy *StageTimes) error {
	k, vs := e.k, e.vs
	sgr := e.outcomes[i].sg
	if sgr == nil {
		sgr = k.getSubgrid(item.X0, item.Y0)
		e.outcomes[i].sg = sgr
	}
	sgr.WOffset, sgr.WPlane = item.WOffset, item.WPlane
	t0 := time.Now()
	vis := s.visBuf(item.NrVisibilities())
	vs.gather(item, vis)
	if k.ob.enabled() {
		k.ob.flaggedVis(vs.countFlagged(item))
	}
	ap, aq := k.lookupATerms(e.cache, vs.Baselines, item)
	k.gridSubgridScratch(item, vs.itemUVW(item), vis, ap, aq, sgr, s, e.par)
	finite := sgr.Finite()
	t1 := time.Now()
	busy.Gridder += t1.Sub(t0)
	if !finite {
		return fmt.Errorf("%w: non-finite subgrid (corrupt unflagged visibilities)", faulttol.ErrBadInput)
	}
	k.fftSubgridOne(sgr, false)
	busy.SubgridFFT += time.Since(t1)
	if k.ob.enabled() {
		k.ob.subgrids(k.ob.sgFFT, 1)
	}
	return nil
}

// degrid is the degridding item body: split, inverse subgrid FFT,
// degridder and scatter. The source grid is read-only and items write
// disjoint visibilities, so nothing here needs ordering.
func (e *engine) degrid(item plan.WorkItem, s *scratch, busy *StageTimes) error {
	k, vs := e.k, e.vs
	sgr := k.getSubgrid(item.X0, item.Y0)
	defer k.putSubgrid(sgr)
	sgr.WOffset, sgr.WPlane = item.WOffset, item.WPlane
	t0 := time.Now()
	splitSubgrid(e.src, sgr)
	t1 := time.Now()
	k.fftSubgridOne(sgr, true)
	t2 := time.Now()
	vis := s.visBuf(item.NrVisibilities())
	ap, aq := k.lookupATerms(e.cache, vs.Baselines, item)
	k.degridSubgridScratch(item, sgr, vs.itemUVW(item), ap, aq, vis, s, e.par)
	vs.scatter(item, vis)
	busy.Splitter += t1.Sub(t0)
	busy.SubgridFFT += t2.Sub(t1)
	busy.Degridder += time.Since(t2)
	if k.ob.enabled() {
		k.ob.subgrids(k.ob.sgSplit, 1)
		k.ob.subgrids(k.ob.sgFFT, 1)
	}
	return nil
}

// fail records the pass's first fatal error and stops the pass.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
	e.cancel()
}

// finish marks item i done. The worker that completes the lowest
// uncommitted chunk becomes the committer and commits every
// consecutive completed chunk; the committing flag keeps commits
// serial and in order.
func (e *engine) finish(i int, busy StageTimes, times *StageTimes) {
	c := i / e.chunkItems
	e.mu.Lock()
	if e.traces != nil {
		e.traces[c].busy.Add(busy)
	}
	e.left[c]--
	if e.left[c] > 0 || c != e.committed || e.committing {
		e.mu.Unlock()
		return
	}
	e.committing = true
	for e.committed < len(e.left) && e.left[e.committed] == 0 && e.runCtx.Err() == nil {
		c := e.committed
		// Commit unlocked: it may panic (a checkpoint hook), and the
		// worker's recovery must not find the engine mutex held.
		e.mu.Unlock()
		err := e.commit(c, times)
		e.mu.Lock()
		if err != nil {
			if e.firstErr == nil {
				e.firstErr = err
			}
			e.cancel()
			break
		}
		e.committed++
		e.live -= e.chunkLen(c)
		e.cond.Broadcast()
	}
	e.committing = false
	e.mu.Unlock()
}

// chunkLen is the item count of relative chunk c.
func (e *engine) chunkLen(c int) int {
	return min(e.chunkItems, len(e.items)-c*e.chunkItems)
}

// commit adds relative chunk c onto the grid in item order, folds its
// outcomes into the report, and writes a checkpoint when the chunk
// ends a checkpoint epoch. Epochs are aligned to multiples of the
// period from chunk 0, so a resumed pass checkpoints at the same
// cursors as an uninterrupted one.
func (e *engine) commit(c int, times *StageTimes) error {
	k := e.k
	lo := c * e.chunkItems
	items := e.items[lo : lo+e.chunkLen(c)]
	outs := e.outcomes[lo : lo+len(items)]
	var t0 time.Time
	var locks, contended int64
	added := 0
	if e.dst != nil {
		t0 = time.Now()
		for j := range outs {
			if sg := outs[j].sg; sg != nil {
				l, ct := k.shardOp(0, sg, e.dst, true)
				locks += l
				contended += ct
				added++
				k.putSubgrid(sg)
				outs[j].sg = nil
			}
		}
		times.Adder += time.Since(t0)
	}
	for j, o := range outs {
		if o.skip != nil {
			e.rep.RecordSkip(o.skip, int64(items[j].NrVisibilities()))
			k.ob.itemSkipped(items[j])
		} else {
			e.rep.RecordSuccess(o.attempts > 1)
		}
	}
	if k.ob.enabled() {
		e.traceChunk(c, items, t0, added, locks, contended)
	}
	if e.dst == nil {
		return nil
	}
	cursor := e.base + c + 1
	k.fireCheckpointHook(checkpoint.EventChunkCommitted, cursor-1)
	if e.ckptEvery > 0 && (cursor%e.ckptEvery == 0 || cursor == e.base+len(e.left)) {
		return k.writeStreamCheckpoint(e.p, e.dst, cursor, e.rep)
	}
	return nil
}

// traceChunk publishes a committed chunk's stage spans (busy time per
// stage, summed over the workers that ran its items), its adder span
// and the shard counters.
func (e *engine) traceChunk(c int, items []plan.WorkItem, addStart time.Time, added int, locks, contended int64) {
	k := e.k
	wp := planeOf(items)
	e.mu.Lock()
	tr := e.traces[c]
	inflight := (e.next+e.chunkItems-1)/e.chunkItems - c - 1
	e.mu.Unlock()
	busy := tr.busy
	chunk := e.base + c
	for _, st := range []struct {
		stage obs.Stage
		d     time.Duration
	}{
		{obs.StageGrid, busy.Gridder},
		{obs.StageSplit, busy.Splitter},
		{obs.StageFFT, busy.SubgridFFT},
		{obs.StageDegrid, busy.Degridder},
	} {
		if st.d > 0 {
			k.ob.stageDone(st.stage, chunk, wp, tr.start, st.d)
		}
	}
	if e.dst != nil {
		k.ob.stageDone(obs.StageAdd, chunk, wp, addStart, time.Since(addStart))
		k.ob.shardBatch(k.ob.sgAdd, added, locks, contended)
		k.ob.chunkDone(int64(inflight))
	}
}
