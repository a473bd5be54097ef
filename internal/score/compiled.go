package score

import (
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/symbol"
)

// Compiled is σ compiled for the alignment kernels: a compressed sparse row
// (CSR) matrix over oriented symbol indices, so DP inner loops visit only
// the cells that can change a score, with no interface dispatch, no hashing
// and no per-cell canonicalization.
//
// A matrix compiled for maximum region ID n covers the 2n+1 oriented symbols
// −n … n (reversed regions, the pad, normal regions). Symbol s maps to index
// s+n; row a's nonzero cells are col/val[rowOff[a+n]:rowOff[a+n+1]], in
// ascending column order, and every unlisted cell is +0. Pads compile to
// empty rows and columns, and reversal symmetry is inherited from the base
// scorer, so the compiled matrix obeys the same scorer laws bit-for-bit:
// every stored value is the exact float64 the base scorer returned at
// compile time (±0 is never stored, so a −0 compiles to +0).
//
// Symbols outside the compiled range fall back to the base scorer, so a
// Compiled is safe to use as a drop-in Scorer anywhere; alignment kernels
// additionally detect a *Compiled and switch to the sparse fast path when it
// covers their words (see internal/align).
type Compiled struct {
	base   Scorer
	n      int32 // maximum region ID covered
	dim    int32 // 2n+1 oriented symbols
	rowOff []int32
	col    []int32
	val    []float64

	// trans caches Transposed so concurrent solves sharing one compiled
	// matrix (the batch pool's per-alphabet cache) transpose σ once.
	transOnce sync.Once
	trans     *Compiled

	// intc caches Int() — the integer-quantized form — so it is built once
	// per compiled matrix and shared alongside the transpose.
	intOnce sync.Once
	intc    *CompiledInt

	// Positive-cell index (PosRow): posOff[i] … posOff[i+1] spans row i's
	// positive columns in posCol/posVal. The kernels read it once per DP
	// row, so it is built with the matrix, in O(nonzeros + dim), and PosRow
	// stays a plain slice expression.
	posOff []int32
	posCol []int32
	posVal []float64
}

// Compile evaluates base on every oriented symbol pair with region IDs up to
// maxID and returns the sparse matrix. If base is already a Compiled
// covering maxID it is returned as is. A *Table additionally remembers its
// last compilation: recompiling an unmutated table that was already
// compiled for a sufficient maxID returns the identical matrix (with its
// cached transpose and quantization). On a miss, Table and Identity cost
// O(stored entries + maxID) and Quantized costs the nonzero cells of its
// compiled base; any other scorer costs O(maxID²) base evaluations. Memory
// is O(nonzero cells + maxID) on every path. Zero scores (±0) are never
// stored, so every unlisted cell is +0.
func Compile(base Scorer, maxID int32) *Compiled {
	if maxID < 0 {
		maxID = 0
	}
	if c, ok := base.(*Compiled); ok && c.n >= maxID {
		return c
	}
	if t, ok := base.(*Table); ok {
		if e := t.compiled.Load(); e != nil && e.gen == t.gen && e.c.n >= maxID {
			return e.c
		}
	}
	n := maxID
	dim := 2*n + 1
	c := &Compiled{base: base, n: n, dim: dim, rowOff: make([]int32, dim+1)}
	// Every path but Table emits cells in row-major order: endRow closes
	// row ia once its cells are appended.
	endRow := func(ia int32) { c.rowOff[ia+1] = int32(len(c.col)) }
	switch s := base.(type) {
	case *Table:
		// Each nonzero canonical entry (a, b) = v expands to the two
		// oriented cells (a, b) and (aᴿ, bᴿ) the reversal law implies;
		// distinct entries never share a cell. A stored zero is an
		// unlisted pair. Map order is arbitrary, so the cells are placed by
		// a counting sort on the row (one pass counts, one scatters) and
		// each row is then sorted by column.
		visit := func(fn func(ia, ib int32, v float64)) {
			s.Pairs(func(a, b symbol.Symbol, v float64) {
				if v == 0 || a.ID() > n || b.ID() > n {
					return
				}
				fn(int32(a)+n, int32(b)+n, v)
				fn(-int32(a)+n, -int32(b)+n, v)
			})
		}
		visit(func(ia, _ int32, _ float64) { c.rowOff[ia+1]++ })
		for i := int32(1); i <= dim; i++ {
			c.rowOff[i] += c.rowOff[i-1]
		}
		c.col = make([]int32, c.rowOff[dim])
		c.val = make([]float64, c.rowOff[dim])
		next := slices.Clone(c.rowOff[:dim])
		visit(func(ia, ib int32, v float64) {
			c.col[next[ia]], c.val[next[ia]] = ib, v
			next[ia]++
		})
		for i := int32(0); i < dim; i++ {
			lo, hi := c.rowOff[i], c.rowOff[i+1]
			sortCells(c.col[lo:hi], c.val[lo:hi])
		}
	case *Identity:
		// Only the diagonal σ(a, a) = weight(a) is nonzero.
		for a := -n; a <= n; a++ {
			if a != 0 { // pad row stays empty
				if w := s.Weight(symbol.Symbol(a)); w != 0 {
					c.col = append(c.col, a+n)
					c.val = append(c.val, w)
				}
			}
			endRow(a + n)
		}
	case Quantized:
		// Compile the base (hitting its own fast case), then truncate each
		// of its nonzero cells — the same floor Quantized.Score applies per
		// call, under which a zero cell stays zero. The base may cover a
		// wider range; its in-range cells keep their order.
		cb := Compile(s.Base, n)
		for a := -n; a <= n; a++ {
			ja := a + cb.n
			for k := cb.rowOff[ja]; k < cb.rowOff[ja+1]; k++ {
				b := cb.col[k] - cb.n
				if b < -n || b > n {
					continue
				}
				v := cb.val[k]
				if s.Unit > 0 {
					v = math.Floor(v/s.Unit) * s.Unit
				}
				if v != 0 {
					c.col = append(c.col, b+n)
					c.val = append(c.val, v)
				}
			}
			endRow(a + n)
		}
	default:
		for a := -n; a <= n; a++ {
			for b := -n; b <= n && a != 0; b++ {
				if b == 0 {
					continue // pad column stays empty
				}
				if v := base.Score(symbol.Symbol(a), symbol.Symbol(b)); v != 0 {
					c.col = append(c.col, b+n)
					c.val = append(c.val, v)
				}
			}
			endRow(a + n)
		}
	}
	c.buildPosRows()
	if t, ok := base.(*Table); ok {
		t.compiled.Store(&tableCompiled{gen: t.gen, c: c})
	}
	return c
}

// sortCells sorts one row's parallel column/value cells by column. Rows of
// a sparse σ hold a handful of cells, for which insertion sort is cheapest;
// long rows take the library sort.
func sortCells(col []int32, val []float64) {
	if len(col) > 16 {
		sort.Sort(cellSorter{col, val})
		return
	}
	for i := 1; i < len(col); i++ {
		k, v := col[i], val[i]
		j := i
		for j > 0 && col[j-1] > k {
			col[j], val[j] = col[j-1], val[j-1]
			j--
		}
		col[j], val[j] = k, v
	}
}

type cellSorter struct {
	col []int32
	val []float64
}

func (s cellSorter) Len() int           { return len(s.col) }
func (s cellSorter) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s cellSorter) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// MaxID returns the largest region ID the matrix covers.
func (c *Compiled) MaxID() int32 { return c.n }

// Base returns the scorer the matrix was compiled from.
func (c *Compiled) Base() Scorer { return c.base }

// Nonzeros returns the number of stored (nonzero) cells.
func (c *Compiled) Nonzeros() int { return len(c.col) }

// Score implements Scorer. In-range pairs search row a's nonzero columns;
// out-of-range symbols fall back to the base scorer.
func (c *Compiled) Score(a, b symbol.Symbol) float64 {
	ia, ib := int32(a)+c.n, int32(b)+c.n
	if uint32(ia) >= uint32(c.dim) || uint32(ib) >= uint32(c.dim) {
		return c.base.Score(a, b)
	}
	lo, hi := c.rowOff[ia], c.rowOff[ia+1]
	cols := c.col[lo:hi]
	if len(cols) > 8 {
		if k, ok := slices.BinarySearch(cols, ib); ok {
			return c.val[int(lo)+k]
		}
		return 0
	}
	for k, x := range cols {
		if x >= ib {
			if x == ib {
				return c.val[int(lo)+k]
			}
			break
		}
	}
	return 0
}

// Cells returns the nonzero cells of symbol a's row as parallel
// column-index and value slices, in ascending column order; every other
// cell of the row is +0. The caller must ensure |a| ≤ MaxID; the returned
// slices must not be modified.
func (c *Compiled) Cells(a symbol.Symbol) (cols []int32, vals []float64) {
	ia := int32(a) + c.n
	lo, hi := c.rowOff[ia], c.rowOff[ia+1]
	return c.col[lo:hi], c.val[lo:hi]
}

// Index returns the column index of symbol b within a row (see Cells and
// PosRow).
func (c *Compiled) Index(b symbol.Symbol) int32 { return int32(b) + c.n }

// IndexWord maps every symbol of w to its column index, for hoisting the
// index computation out of DP inner loops.
func (c *Compiled) IndexWord(w symbol.Word) []int32 {
	return c.IndexWordInto(make([]int32, 0, len(w)), w)
}

// IndexWordInto is IndexWord appending into dst[:0], so kernels and scratch
// arenas reuse one backing array across calls instead of allocating per DP.
func (c *Compiled) IndexWordInto(dst []int32, w symbol.Word) []int32 {
	dst = dst[:0]
	for _, s := range w {
		dst = append(dst, int32(s)+c.n)
	}
	return dst
}

// PosRow returns the positive cells of symbol a's row as parallel
// column-index and value slices (column order, ascending). The returned
// slices must not be modified. The caller must ensure |a| ≤ MaxID.
func (c *Compiled) PosRow(a symbol.Symbol) (cols []int32, vals []float64) {
	ia := int32(a) + c.n
	lo, hi := c.posOff[ia], c.posOff[ia+1]
	return c.posCol[lo:hi], c.posVal[lo:hi]
}

// buildPosRows keeps the positive cells of every row: one pass counts them,
// so the index is allocated at its exact size.
func (c *Compiled) buildPosRows() {
	c.posOff = make([]int32, c.dim+1)
	for i := int32(0); i < c.dim; i++ {
		cnt := c.posOff[i]
		for _, v := range c.val[c.rowOff[i]:c.rowOff[i+1]] {
			if v > 0 {
				cnt++
			}
		}
		c.posOff[i+1] = cnt
	}
	c.posCol = make([]int32, c.posOff[c.dim])
	c.posVal = make([]float64, c.posOff[c.dim])
	k := 0
	for i, v := range c.val {
		if v > 0 {
			c.posCol[k], c.posVal[k] = c.col[i], v
			k++
		}
	}
}

// Transposed returns the compiled matrix of σᵀ(a, b) = σ(b, a). The result
// is computed once and cached (safely under concurrent use), and its own
// transpose links back to c, so repeated solves over a shared matrix build
// it a single time. The build is a counting sort of the cells by column —
// CSR to CSC — in O(nonzeros + dim).
func (c *Compiled) Transposed() *Compiled {
	c.transOnce.Do(func() {
		t := &Compiled{base: Transpose(c.base), n: c.n, dim: c.dim}
		t.rowOff = make([]int32, c.dim+1)
		for _, j := range c.col {
			t.rowOff[j+1]++
		}
		for j := int32(1); j <= c.dim; j++ {
			t.rowOff[j] += t.rowOff[j-1]
		}
		t.col = make([]int32, len(c.col))
		t.val = make([]float64, len(c.val))
		next := slices.Clone(t.rowOff[:c.dim])
		// Rows are visited in ascending order, so each transposed row's
		// columns come out ascending.
		for i := int32(0); i < c.dim; i++ {
			for k := c.rowOff[i]; k < c.rowOff[i+1]; k++ {
				j := c.col[k]
				t.col[next[j]], t.val[next[j]] = i, c.val[k]
				next[j]++
			}
		}
		t.buildPosRows()
		t.trans = c
		t.transOnce.Do(func() {}) // mark resolved: t.Transposed() == c
		c.trans = t
	})
	return c.trans
}

// transposedScorer swaps the species arguments: σᵀ(x, y) = σ(y, x).
type transposedScorer struct{ base Scorer }

func (t transposedScorer) Score(a, b symbol.Symbol) float64 { return t.base.Score(b, a) }

// Transpose returns the scorer with species sides exchanged. Transposing a
// transpose returns the original scorer; transposing a compiled matrix
// (float64 or quantized) returns the transposed compiled matrix.
func Transpose(sc Scorer) Scorer {
	switch s := sc.(type) {
	case *Compiled:
		return s.Transposed()
	case *CompiledInt:
		return s.Transposed()
	case transposedScorer:
		return s.base
	}
	return transposedScorer{sc}
}
