package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
)

// FFTSubgrids Fourier-transforms a batch of subgrids in place, image
// domain -> uv domain (the "subgrid FFTs" step of Fig. 4). Each
// correlation plane is transformed independently with the centered
// convention; the work is embarrassingly parallel over subgrids, as
// noted in Section V-B-c.
func (k *Kernels) FFTSubgrids(subgrids []*grid.Subgrid) {
	k.transformSubgrids(subgrids, false)
}

// InverseFFTSubgrids transforms subgrids uv domain -> image domain,
// used between the splitter and the degridder.
func (k *Kernels) InverseFFTSubgrids(subgrids []*grid.Subgrid) {
	k.transformSubgrids(subgrids, true)
}

func (k *Kernels) transformSubgrids(subgrids []*grid.Subgrid, inverse bool) {
	if k.ob.enabled() {
		k.ob.subgrids(k.ob.sgFFT, countLive(subgrids))
	}
	if k.params.workers() <= 1 {
		// Inline serial loop: a function value handed to fanOut escapes
		// to the heap, and the single-worker stage allocates nothing.
		for _, s := range subgrids {
			if s != nil {
				k.fftSubgridOne(s, inverse)
			}
		}
		return
	}
	fanOut(k.params.workers(), subgrids, func(_ int, s *grid.Subgrid) {
		k.fftSubgridOne(s, inverse)
	})
}

// fftSubgridOne transforms a single subgrid in place. The forward
// transform is scaled by 1/N~^2 so that (a) gridding a visibility
// deposits unit total weight onto the grid and (b) the degridding
// pipeline is the exact adjoint of the gridding pipeline (the inverse
// transform already carries the 1/N~^2 of fft.InverseCentered). All
// four correlation planes go through the fused-centering batched path;
// both directions carry the same 1/N~^2, so the scale folds into the
// transform's output pass. The pass engine calls this per item, so
// each worker transforms its own subgrid without a nested fan-out.
func (k *Kernels) fftSubgridOne(s *grid.Subgrid, inverse bool) {
	norm := complex(1/float64(k.params.SubgridSize*k.params.SubgridSize), 0)
	k.sgFFT.TransformPlanes(s.Data[:], inverse, norm)
}

// checkBatch validates a batch of subgrids against an n-pixel grid on
// the calling goroutine, before any fan-out: a panic inside a worker
// goroutine would kill the process instead of reaching the caller.
func (k *Kernels) checkBatch(n int, subgrids []*grid.Subgrid) {
	if n != k.params.GridSize {
		panic("core: grid size does not match kernel parameters")
	}
	for _, s := range subgrids {
		if s != nil && !s.InBounds(n) {
			panic(fmt.Sprintf("core: subgrid (%d,%d)+%d outside %d-pixel grid", s.X0, s.Y0, s.N, n))
		}
	}
}

// Adder accumulates uv-domain subgrids onto the grid. Subgrids may
// overlap, so parallelizing over subgrids would need per-pixel
// synchronization; following Section V-B-d the adder parallelizes
// over grid rows instead: each worker owns a contiguous band of rows
// and adds the intersecting slice of every subgrid, so no two workers
// ever touch the same pixel.
func (k *Kernels) Adder(subgrids []*grid.Subgrid, g *grid.Grid) {
	k.checkBatch(g.N, subgrids)
	if k.ob.enabled() {
		k.ob.subgrids(k.ob.sgAdd, countLive(subgrids))
	}
	workers := k.params.workers()
	if workers > g.N {
		workers = g.N
	}
	addBand := func(rowLo, rowHi int) {
		for _, s := range subgrids {
			if s == nil {
				continue
			}
			lo, hi := s.Y0, s.Y0+s.N
			if lo < rowLo {
				lo = rowLo
			}
			if hi > rowHi {
				hi = rowHi
			}
			for y := lo; y < hi; y++ {
				sy := y - s.Y0
				for c := 0; c < grid.NrCorrelations; c++ {
					dst := g.Data[c][y*g.N+s.X0 : y*g.N+s.X0+s.N]
					src := s.Data[c][sy*s.N : (sy+1)*s.N]
					for x := range dst {
						dst[x] += src[x]
					}
				}
			}
		}
	}
	if workers <= 1 || len(subgrids) == 0 {
		addBand(0, g.N)
		return
	}
	var wg sync.WaitGroup
	band := (g.N + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*band, (w+1)*band
		if hi > g.N {
			hi = g.N
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			addBand(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Splitter extracts uv-domain subgrids from the grid (the reverse of
// the adder). The grid is read-only here, so the splitter parallelizes
// over subgrids (Section V-B-d). Each destination subgrid must already
// carry its anchor (X0, Y0).
func (k *Kernels) Splitter(g *grid.Grid, subgrids []*grid.Subgrid) {
	k.checkBatch(g.N, subgrids)
	if k.ob.enabled() {
		k.ob.subgrids(k.ob.sgSplit, countLive(subgrids))
	}
	fanOut(k.params.workers(), subgrids, func(_ int, s *grid.Subgrid) {
		splitSubgrid(g, s)
	})
}

// splitSubgrid copies the grid pixels under s into s.
func splitSubgrid(g *grid.Grid, s *grid.Subgrid) {
	for c := 0; c < grid.NrCorrelations; c++ {
		for y := 0; y < s.N; y++ {
			gy := s.Y0 + y
			copy(s.Data[c][y*s.N:(y+1)*s.N], g.Data[c][gy*g.N+s.X0:gy*g.N+s.X0+s.N])
		}
	}
}

// AdderSharded accumulates uv-domain subgrids onto a sharded grid.
// Unlike Adder (whose workers each scan every subgrid for their row
// band), the sharded adder parallelizes over subgrids and lets the
// shard locks arbitrate overlapping writes, so its work scales with
// the subgrid count and its contention falls with the shard count.
//
// Determinism: with one shard or one worker the subgrids are added
// serially in batch order, which reproduces the serial Adder
// bit-for-bit. With multiple shards and workers the per-pixel
// accumulation order depends on scheduling; the result differs from
// the serial grid only by floating-point reassociation. The pass
// engine does not fan out here: its committer adds one subgrid at a
// time in plan order, so passes are bitwise at any worker count.
func (k *Kernels) AdderSharded(subgrids []*grid.Subgrid, sh *grid.Sharded) {
	k.shardedBatch(subgrids, sh, true)
}

// SplitterSharded extracts uv-domain subgrids from a sharded grid
// under the shard locks, so extraction is coherent even while another
// goroutine is accumulating into the same sharded grid (the classic
// Splitter requires a quiescent grid). Each destination subgrid must
// already carry its anchor (X0, Y0).
func (k *Kernels) SplitterSharded(sh *grid.Sharded, subgrids []*grid.Subgrid) {
	k.shardedBatch(subgrids, sh, false)
}

// shardedBatch is the shared adder/splitter scaffolding: the serial
// in-order path with one effective worker or one shard (bitwise
// deterministic for the adder), the fan-out over subgrids otherwise,
// and the lock/contention accounting.
func (k *Kernels) shardedBatch(subgrids []*grid.Subgrid, sh *grid.Sharded, add bool) {
	k.checkBatch(sh.Master().N, subgrids)
	var locks, contended int64
	workers := min(k.params.workers(), len(subgrids))
	if workers <= 1 || sh.NumShards() == 1 {
		// Direct serial loop: no function values, so the nil-observer
		// hot path stays allocation-free.
		for _, s := range subgrids {
			l, c := k.shardOp(0, s, sh, add)
			locks += l
			contended += c
		}
	} else {
		var lockT, contT atomic.Int64
		fanOut(workers, subgrids, func(worker int, s *grid.Subgrid) {
			l, c := k.shardOp(worker, s, sh, add)
			lockT.Add(l)
			contT.Add(c)
		})
		locks, contended = lockT.Load(), contT.Load()
	}
	if k.ob.enabled() {
		c := k.ob.sgSplit
		if add {
			c = k.ob.sgAdd
		}
		k.ob.shardBatch(c, countLive(subgrids), locks, contended)
	}
}

// shardOp adds s onto (add) or copies it out of the sharded grid under
// the shard locks, returning the locks taken and how many were
// contended. With a tracer attached each (subgrid, shard) overlap is
// locked and recorded as its own span.
func (k *Kernels) shardOp(worker int, s *grid.Subgrid, sh *grid.Sharded, add bool) (locks, contended int64) {
	if s == nil {
		return 0, 0
	}
	if !k.ob.tracing() {
		var l, c int
		if add {
			l, c = sh.AddSubgrid(s)
		} else {
			l, c = sh.CopySubgrid(s)
		}
		return int64(l), int64(c)
	}
	lo, hi := sh.ShardOfRow(s.Y0), sh.ShardOfRow(s.Y0+s.N-1)
	for si := lo; si <= hi; si++ {
		t0 := time.Now()
		var busy bool
		if add {
			busy = sh.AddSubgridShard(s, si)
		} else {
			busy = sh.CopySubgridShard(s, si)
		}
		if busy {
			contended++
		}
		locks++
		k.ob.shardDone(worker, si, s.WPlane, t0)
	}
	return locks, contended
}

// fanOut runs fn over the non-nil subgrids on up to workers
// goroutines (inline with one).
func fanOut(workers int, subgrids []*grid.Subgrid, fn func(worker int, s *grid.Subgrid)) {
	workers = min(workers, len(subgrids))
	if workers <= 1 {
		for _, s := range subgrids {
			if s != nil {
				fn(0, s)
			}
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan *grid.Subgrid, len(subgrids))
	for _, s := range subgrids {
		// Skipped (nil) subgrids of a degraded run carry no data.
		if s != nil {
			ch <- s
		}
	}
	close(ch)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for s := range ch {
				fn(worker, s)
			}
		}(w)
	}
	wg.Wait()
}

// countLive counts the non-nil subgrids of a batch (skipped items of a
// degraded run leave nil slots).
func countLive(subgrids []*grid.Subgrid) int {
	n := 0
	for _, s := range subgrids {
		if s != nil {
			n++
		}
	}
	return n
}
