package align

import (
	"sync"

	"repro/internal/score"
	"repro/internal/symbol"
)

// Scratch is a reusable arena for every buffer the alignment kernels need:
// rolled DP row pairs, placement rows, the column-index word of b, the
// per-call sparse σ tables of the fast paths, and the full DP matrix of
// Align. All kernels are methods on Scratch; the package-level functions
// borrow one from an internal sync.Pool, so steady-state alignment —
// thousands of candidate simulations per improvement round — performs no
// heap allocation at all.
//
// A Scratch is not safe for concurrent use: one goroutine, one Scratch.
// Solvers hold one per solve (greedy, onecsr, exact, the improve driver);
// everyone else goes through the package-level functions and shares the
// pool.
type Scratch struct {
	fa, fb []float64 // rolled DP rows
	sa, sb []int32   // start-index rows of the interface placement kernel
	bi     []int32   // column indices of b

	// Placement rows of the compiled kernel, held as breakpoints
	// (see stepRow): the current row and the one being built. out holds
	// the frontier PlacementsEach hands to its callback.
	steps, stepsNext []step
	out              []Placement

	// Per-call sparse σ tables of the fast paths: pos holds positions in
	// b, valF their σ values. Tables over a whole word key its distinct
	// symbols: rowOf maps an oriented symbol index to 1+its span, spans[k]
	// indexes pos/valF. aSpan[i] spans row i of a floatTable, and positive
	// records whether its rows list positive cells only (see queryRows).
	rowOf    []int32
	rowIdx   []int32 // oriented indices set in rowOf, for O(touched) reset
	spans    [][2]int32
	aSpan    [][2]int32
	positive bool
	pos      []int32
	valF     []float64

	// Inverse index of b for the sparse table builds: bHead[col] chains the
	// positions of b holding oriented column col (1-based indices into
	// bNext, ascending). bTouched lists the set bHead cells for O(touched)
	// reset, mirroring rowIdx. PlacementsEach builds it, with bi, once per
	// zone and reads it for every query.
	bHead    []int32
	bNext    []int32
	bTouched []int32

	// gf is the banded kernel's σ row, scattered across the band.
	gf []float64

	// Full DP matrix of Align: flat cells plus row headers.
	cellsF []float64
	rowsF  [][]float64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// NewScratch borrows a scratch arena from the package pool. Callers running
// many alignments (a solve, a worker goroutine) should hold one for the
// duration and Release it at the end.
func NewScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns the arena to the pool. The caller must not use it again.
func (s *Scratch) Release() { scratchPool.Put(s) }

// growF resizes a float64 buffer to n entries, reusing capacity. Contents
// are unspecified; callers clear what they rely on.
func growF(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// growI resizes an int32 buffer to n entries, reusing capacity.
func growI(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// floatRows returns the two rolled DP rows, zeroing the first (DP row 0 is
// all zeros; the second is fully overwritten before it is read).
func (s *Scratch) floatRows(n int) (prev, cur []float64) {
	s.fa, s.fb = growF(s.fa, n), growF(s.fb, n)
	clear(s.fa)
	return s.fa, s.fb
}

// indexWord fills s.bi with the column indices of b.
func (s *Scratch) indexWord(c *score.Compiled, b symbol.Word) []int32 {
	s.bi = c.IndexWordInto(growI(s.bi, len(b))[:0], b)
	return s.bi
}

// matrixF returns an (m+1)×(n+1) float64 DP matrix with row 0 and column 0
// zeroed, backed by the arena.
func (s *Scratch) matrixF(m, n int) [][]float64 {
	s.cellsF = growF(s.cellsF, (m+1)*(n+1))
	if cap(s.rowsF) < m+1 {
		s.rowsF = make([][]float64, m+1)
	}
	d := s.rowsF[:m+1]
	for i := range d {
		d[i] = s.cellsF[i*(n+1) : (i+1)*(n+1)]
		d[i][0] = 0
	}
	clear(d[0])
	return d
}

// resetSparse prepares the symbol-keyed sparse table for a matrix of the
// given oriented dimension. rowOf is kept all-zero between calls by undoing
// exactly the entries the last build set (rowIdx) — words are a handful of
// symbols while dim is the full oriented alphabet, so clearing only the
// touched cells beats a dim-wide memclr on every Score/Placements call.
func (s *Scratch) resetSparse(dim int) {
	if cap(s.rowOf) < dim {
		s.rowOf = make([]int32, dim)
	} else {
		for _, ia := range s.rowIdx {
			s.rowOf[ia] = 0
		}
		s.rowOf = s.rowOf[:dim]
	}
	s.rowIdx = s.rowIdx[:0]
	s.spans = s.spans[:0]
	s.pos = s.pos[:0]
}

// indexB builds the inverse index of b for the sparse positive-column
// builds: bHead[col] chains the positions of b holding oriented column col
// (1-based indices into bNext, ascending), from s.bi in one reverse O(|b|)
// pass. bTouched lists the set bHead cells for O(touched) reset.
func (s *Scratch) indexB(dim int) {
	if cap(s.bHead) < dim {
		s.bHead = make([]int32, dim)
	} else {
		for _, col := range s.bTouched {
			s.bHead[col] = 0
		}
		s.bHead = s.bHead[:dim]
	}
	s.bTouched = s.bTouched[:0]
	s.bNext = growI(s.bNext, len(s.bi)+1)
	for j := len(s.bi) - 1; j >= 0; j-- {
		col := s.bi[j]
		if s.bHead[col] == 0 {
			s.bTouched = append(s.bTouched, col)
		}
		s.bNext[j+1] = s.bHead[col]
		s.bHead[col] = int32(j + 1)
	}
}
