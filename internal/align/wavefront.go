package align

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/score"
	"repro/internal/symbol"
)

// WavefrontAligner computes the free-gap alignment score with a blocked
// anti-diagonal wavefront schedule: the DP matrix is partitioned into
// BlockRows × BlockCols tiles; a tile becomes runnable once the tiles above
// and to its left have completed, and runnable tiles are executed by a pool
// of Workers goroutines. This reproduces the parallel incremental-DP design
// of the IPPS 2002 evaluation on shared-memory goroutines instead of a
// cluster.
//
// Memory is O(number-of-tile-rows × |b|): only tile boundary rows are
// retained, as in coarse-grained cluster implementations — and all of it
// (boundary rows, carry columns, dependency counters, tile working rows) is
// pooled and reused across calls, so steady-state scoring allocates nothing
// with Workers == 1 (which runs the tiles inline as a blocked cache-friendly
// sweep) and only scheduling state otherwise. A quantized σ
// (score.CompiledInt) runs every tile over its integer-valued cells and
// dequantizes the final corner only.
type WavefrontAligner struct {
	// Workers is the number of goroutines; values < 1 mean 1. With exactly
	// one worker the tiles run inline on the calling goroutine: same blocked
	// schedule, no channels, no spawns.
	Workers int
	// BlockRows and BlockCols are the tile dimensions; values < 1 default
	// to 128.
	BlockRows, BlockCols int
	// Ctx, when non-nil, cancels a sweep between tiles: the schedulers
	// (inline and parallel alike) poll it before computing each tile, so a
	// deadline interrupts even one very large single alignment mid-sweep
	// instead of at the matrix boundary. A canceled Score returns 0; use
	// ScoreCtx to observe the error. Cancellation never corrupts the pooled
	// sweep state — remaining tiles are skipped, not half-computed, and the
	// state is recycled as usual.
	Ctx context.Context
}

// wfState is the pooled per-call state of one wavefront run: the retained
// tile boundary rows and right-boundary carry columns, the compiled tiles'
// σ table, and the tile dependency counters.
type wfState struct {
	a, b   symbol.Word
	sc     score.Scorer
	cm     *score.Compiled
	unit   float64 // scales the corner (see resolve)
	tab    Scratch // σ table of a against b (floatTable), read by every tile
	m, n   int
	br, bc int
	nI, nJ int

	rowBuf [][]float64 // rowBuf[I][j] = D[rowEnd(I)][j]; rowBuf[0] = DP row 0
	carry  [][]float64 // carry[I][r] = D[rowLo(I)+r][colDone], updated in place
	deps   []int32
}

var wfPool = sync.Pool{New: func() any { return new(wfState) }}

func growRowsF(rows [][]float64, k, n int) [][]float64 {
	if cap(rows) < k {
		rows = append(rows[:cap(rows)], make([][]float64, k-cap(rows))...)
	}
	rows = rows[:k]
	for i := range rows {
		rows[i] = growF(rows[i], n)
	}
	return rows
}

// Score returns P_score(a, b), identical to the serial Score. A canceled
// Ctx yields 0; ScoreCtx surfaces the error.
func (w WavefrontAligner) Score(a, b symbol.Word, sc score.Scorer) float64 {
	out, _ := w.ScoreCtx(a, b, sc)
	return out
}

// ScoreCtx is Score with the cancellation error surfaced: it returns the
// Ctx error when the sweep was interrupted (the partial score is discarded)
// and otherwise the exact score.
func (w WavefrontAligner) ScoreCtx(a, b symbol.Word, sc score.Scorer) (float64, error) {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0, nil
	}
	br, bc := w.BlockRows, w.BlockCols
	if br < 1 {
		br = 128
	}
	if bc < 1 {
		bc = 128
	}
	workers := w.Workers
	if workers < 1 {
		workers = 1
	}

	ws := wfPool.Get().(*wfState)
	ws.a, ws.b, ws.sc = a, b, sc
	ws.m, ws.n = m, n
	ws.br, ws.bc = br, bc
	ws.nI = (m + br - 1) / br
	ws.nJ = (n + bc - 1) / bc
	ws.cm, ws.unit = resolve(sc, a, b, m*n)
	if ws.cm != nil {
		// The tiles only read the table, so parallel workers share it.
		ws.tab.indexF(b, ws.cm)
		ws.tab.floatTable(a, ws.cm, true)
	}

	// Boundary rows and carry columns; row 0 and column 0 of the DP are all
	// zeros, everything else is fully written by some tile before it is read.
	ws.rowBuf = growRowsF(ws.rowBuf, ws.nI+1, n+1)
	clear(ws.rowBuf[0])
	ws.carry = growRowsF(ws.carry, ws.nI, br+1)
	for I := range ws.carry {
		clear(ws.carry[I])
	}

	if workers == 1 {
		s := NewScratch()
	sweep:
		for I := 0; I < ws.nI; I++ {
			for J := 0; J < ws.nJ; J++ {
				// Poll between tiles: a tile is the cancellation quantum, so
				// a deadline interrupts the sweep mid-matrix.
				if w.Ctx != nil && w.Ctx.Err() != nil {
					break sweep
				}
				ws.tile(I, J, s)
			}
		}
		s.Release()
	} else {
		ws.runParallel(workers, w.Ctx)
	}

	out := ws.rowBuf[ws.nI][n] * ws.unit
	// Drop references to caller data before pooling the state.
	ws.a, ws.b, ws.sc, ws.cm = nil, nil, nil, nil
	wfPool.Put(ws)
	if w.Ctx != nil {
		if err := w.Ctx.Err(); err != nil {
			return 0, err // the partial sweep's corner is garbage
		}
	}
	return out, nil
}

// runParallel executes the tiles over a worker pool with per-tile dependency
// counters: a tile is enqueued when both its up- and left-neighbour are done.
// A canceled ctx stops the compute but not the scheduling: remaining tiles
// drain through the dependency graph as no-ops, so the wait group settles
// without deadlock and the pooled state stays reusable.
func (ws *wfState) runParallel(workers int, ctx context.Context) {
	total := ws.nI * ws.nJ
	ws.deps = growI(ws.deps, total)
	for I := 0; I < ws.nI; I++ {
		for J := 0; J < ws.nJ; J++ {
			d := int32(0)
			if I > 0 {
				d++
			}
			if J > 0 {
				d++
			}
			ws.deps[I*ws.nJ+J] = d
		}
	}
	var stop atomic.Bool
	type tile struct{ I, J int32 }
	ready := make(chan tile, total)
	var wg, workersWG sync.WaitGroup
	wg.Add(total)
	release := func(I, J int) {
		if I >= ws.nI || J >= ws.nJ {
			return
		}
		if atomic.AddInt32(&ws.deps[I*ws.nJ+J], -1) == 0 {
			ready <- tile{int32(I), int32(J)}
		}
	}
	workersWG.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer workersWG.Done()
			s := NewScratch()
			defer s.Release()
			for t := range ready {
				if !stop.Load() {
					if ctx != nil && ctx.Err() != nil {
						stop.Store(true) // fast path for the other workers
					} else {
						ws.tile(int(t.I), int(t.J), s)
					}
				}
				release(int(t.I)+1, int(t.J))
				release(int(t.I), int(t.J)+1)
				wg.Done()
			}
		}()
	}
	ready <- tile{0, 0}
	wg.Wait()
	close(ready)
	// Join the workers, not just the tiles: a returned sweep must leave no
	// goroutines winding down behind it (their scratch Gets and Releases
	// would otherwise race into whatever the caller does next — visible as
	// phantom allocations in zero-alloc measurements).
	workersWG.Wait()
}

// tile computes one DP tile, reading the boundary row above and the carry
// column to its left and publishing its own bottom row and right column.
// Tiles within a tile-row run strictly left to right, so the carry is
// updated in place: slot r is rewritten only after the row that read it.
func (ws *wfState) tile(I, J int, s *Scratch) {
	rowLo := I * ws.br
	rowHi := min(ws.m, rowLo+ws.br)
	colLo := J * ws.bc
	colHi := min(ws.n, colLo+ws.bc)
	h := rowHi - rowLo
	wdt := colHi - colLo

	top := ws.rowBuf[I][colLo : colHi+1]
	left := ws.carry[I]
	if ws.cm != nil {
		// One rolled row, advanced by the skip sweep over each row's
		// positive cells that fall inside the tile's columns.
		arr, _ := s.floatRows(wdt + 1)
		copy(arr, top)
		left[0] = arr[wdt]
		for r := 1; r <= h; r++ {
			pos, val := ws.tab.row(rowLo + r - 1)
			lo, _ := slices.BinarySearch(pos, int32(colLo))
			hi, _ := slices.BinarySearch(pos, int32(colHi))
			skipRow(arr, left[r], pos[lo:hi], val[lo:hi], int32(colLo))
			left[r] = arr[wdt]
		}
		ws.publish(I, colLo, colHi, arr)
		return
	}
	prev, cur := s.floatRows(wdt + 1)
	copy(prev, top)
	left[0] = prev[wdt]
	for r := 1; r <= h; r++ {
		ai := ws.a[rowLo+r-1]
		cur[0] = left[r]
		for c := 1; c <= wdt; c++ {
			best := prev[c-1] + ws.sc.Score(ai, ws.b[colLo+c-1])
			if prev[c] > best {
				best = prev[c]
			}
			if cur[c-1] > best {
				best = cur[c-1]
			}
			cur[c] = best
		}
		left[r] = cur[wdt]
		prev, cur = cur, prev
	}
	ws.publish(I, colLo, colHi, prev)
}

// publish writes a finished tile's bottom row (row[1:], columns
// colLo+1 … colHi) into the boundary row below tile-row I; the right column
// was carried in place.
func (ws *wfState) publish(I, colLo, colHi int, row []float64) {
	copy(ws.rowBuf[I+1][colLo+1:colHi+1], row[1:])
	if colLo == 0 {
		ws.rowBuf[I+1][0] = 0
	}
}
