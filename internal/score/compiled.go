package score

import (
	"math"
	"slices"
	"sync"

	"repro/internal/symbol"
)

// Compiled is a dense σ-matrix: a Scorer compiled into a flat []float64
// indexed by oriented symbol index, so that DP inner loops become pure slice
// arithmetic with no interface dispatch, no hashing, and no per-cell
// canonicalization.
//
// A matrix compiled for maximum region ID n covers the 2n+1 oriented symbols
// −n … n (reversed regions, the pad, normal regions). Symbol s maps to index
// s+n; the score of (a, b) lives at flat[(a+n)·dim + (b+n)]. Pads compile to
// zero rows and columns, and reversal symmetry is inherited from the base
// scorer, so the compiled matrix obeys the same scorer laws bit-for-bit:
// every entry is the exact float64 the base scorer returned at compile time
// (a −0 compiles to +0).
//
// Symbols outside the compiled range fall back to the base scorer, so a
// Compiled is safe to use as a drop-in Scorer anywhere; alignment kernels
// additionally detect a *Compiled and switch to the row fast path when it
// covers their words (see internal/align).
type Compiled struct {
	base Scorer
	n    int32 // maximum region ID covered
	dim  int32 // 2n+1 oriented symbols
	flat []float64
	// nz lists the flat offsets of the nonzero cells in ascending order.
	// Every other cell is +0, so the derived forms (transpose, positive-row
	// index, quantization) walk nz instead of all dim² cells.
	nz []int32

	// trans caches Transposed so concurrent solves sharing one compiled
	// matrix (the batch pool's per-alphabet cache) transpose σ once.
	transOnce sync.Once
	trans     *Compiled

	// intc caches Int() — the integer-quantized form — so it is built once
	// per compiled matrix and shared alongside the transpose.
	intOnce sync.Once
	intc    *CompiledInt

	// Cached positive-cell index (PosRow), built once per matrix like the
	// CompiledInt one: posOff[i]..posOff[i+1] spans row i's positive columns
	// in posCol/posVal.
	posOnce sync.Once
	posOff  []int32
	posCol  []int32
	posVal  []float64
}

// Compile evaluates base on every oriented symbol pair with region IDs up to
// maxID and returns the dense matrix. If base is already a Compiled covering
// maxID it is returned as is. A *Table additionally remembers its last
// compilation: recompiling an unmutated table that was already compiled for a
// sufficient maxID returns the identical matrix (with its cached transpose
// and quantization) instead of re-densifying. On a miss, Table and Identity
// cost O(stored entries) and Quantized costs the nonzero cells of its
// compiled base, beside the zeroed dim² allocation; any other scorer costs
// O(maxID²) base evaluations. Zero scores (±0) are never stored, so every
// unlisted cell is +0.
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
	c := &Compiled{base: base, n: n, dim: dim, flat: make([]float64, int(dim)*int(dim))}
	set := func(off int32, v float64) {
		c.flat[off] = v
		c.nz = append(c.nz, off)
	}
	switch s := base.(type) {
	case *Table:
		// Each nonzero canonical entry (a, b) = v expands to the two
		// oriented cells (a, b) and (aᴿ, bᴿ) the reversal law implies;
		// distinct entries never share a cell. A stored zero is an
		// unlisted pair.
		c.nz = make([]int32, 0, 2*s.Len())
		s.Pairs(func(a, b symbol.Symbol, v float64) {
			if v == 0 || a.ID() > n || b.ID() > n {
				return
			}
			set((int32(a)+n)*dim+(int32(b)+n), v)
			set((-int32(a)+n)*dim+(-int32(b)+n), v)
		})
		slices.Sort(c.nz)
	case *Identity:
		// Only the diagonal σ(a, a) = weight(a) is nonzero.
		for a := -n; a <= n; a++ {
			if a == 0 {
				continue // pad stays zero
			}
			if w := s.Weight(symbol.Symbol(a)); w != 0 {
				set((a+n)*dim+(a+n), w)
			}
		}
	case Quantized:
		// Compile the base (hitting its own fast case), then truncate each
		// of its nonzero cells — the same floor Quantized.Score applies per
		// call, under which a zero cell stays zero. The base may cover a
		// wider range; its in-range cells keep their row-major order.
		cb := Compile(s.Base, n)
		for _, off := range cb.nz {
			a, b := off/cb.dim-cb.n, off%cb.dim-cb.n
			if a < -n || a > n || b < -n || b > n {
				continue
			}
			v := cb.flat[off]
			if s.Unit > 0 {
				v = math.Floor(v/s.Unit) * s.Unit
			}
			if v != 0 {
				set((a+n)*dim+(b+n), v)
			}
		}
	default:
		for a := -n; a <= n; a++ {
			if a == 0 {
				continue // pad row stays zero
			}
			for b := -n; b <= n; b++ {
				if b == 0 {
					continue // pad column stays zero
				}
				if v := base.Score(symbol.Symbol(a), symbol.Symbol(b)); v != 0 {
					set((a+n)*dim+(b+n), v)
				}
			}
		}
	}
	if t, ok := base.(*Table); ok {
		t.compiled.Store(&tableCompiled{gen: t.gen, c: c})
	}
	return c
}

// MaxID returns the largest region ID the matrix covers.
func (c *Compiled) MaxID() int32 { return c.n }

// Base returns the scorer the matrix was compiled from.
func (c *Compiled) Base() Scorer { return c.base }

// Score implements Scorer. In-range pairs are a single slice load;
// out-of-range symbols fall back to the base scorer.
func (c *Compiled) Score(a, b symbol.Symbol) float64 {
	ia, ib := int32(a)+c.n, int32(b)+c.n
	if uint32(ia) >= uint32(c.dim) || uint32(ib) >= uint32(c.dim) {
		return c.base.Score(a, b)
	}
	return c.flat[ia*c.dim+ib]
}

// Row returns the dense score row for symbol a: Row(a)[Index(b)] = σ(a, b).
// The caller must ensure a is in range (|a| ≤ MaxID); the returned slice
// must not be modified.
func (c *Compiled) Row(a symbol.Symbol) []float64 {
	ia := int(int32(a) + c.n)
	return c.flat[ia*int(c.dim) : (ia+1)*int(c.dim)]
}

// Index returns the column index of symbol b within a Row.
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
// column-index and value slices (column order, ascending) — the float64
// counterpart of CompiledInt.PosRow. The index over all rows is built once
// per matrix and cached; the returned slices must not be modified. The
// caller must ensure |a| ≤ MaxID.
func (c *Compiled) PosRow(a symbol.Symbol) (cols []int32, vals []float64) {
	c.posOnce.Do(c.buildPosRows)
	ia := int(int32(a) + c.n)
	lo, hi := c.posOff[ia], c.posOff[ia+1]
	return c.posCol[lo:hi], c.posVal[lo:hi]
}

func (c *Compiled) buildPosRows() {
	c.posOff, c.posCol, c.posVal = posRows(c.flat, c.nz, c.dim, c.dim)
}

// Transposed returns the compiled matrix of σᵀ(a, b) = σ(b, a). The result
// is computed once and cached (safely under concurrent use), and its own
// transpose links back to c, so repeated solves over a shared matrix build
// it a single time. The build allocates a zeroed matrix and touches only
// the nonzero cells.
func (c *Compiled) Transposed() *Compiled {
	c.transOnce.Do(func() {
		t := &Compiled{base: Transpose(c.base), n: c.n, dim: c.dim, flat: make([]float64, len(c.flat))}
		t.nz = transposeCells(t.flat, c.flat, c.nz, c.dim, c.dim)
		t.trans = c
		t.transOnce.Do(func() {}) // mark resolved: t.Transposed() == c
		c.trans = t
	})
	return c.trans
}

// transposeCells scatters the nonzero cells of the dim×dim matrix src (row
// pitch stride, nonzero offsets nz in ascending order) into the zeroed dst
// at their transposed positions, and returns dst's ascending nonzero index.
// The index is a counting sort of nz by column: nz is row-major, so rows
// stay ascending within each column. Cost is O(len(nz) + dim).
func transposeCells[T float64 | int32](dst, src []T, nz []int32, dim, stride int32) []int32 {
	next := make([]int32, dim+1) // next[j]: where column j's next cell goes
	for _, off := range nz {
		next[off%stride+1]++
	}
	for j := int32(1); j <= dim; j++ {
		next[j] += next[j-1]
	}
	out := make([]int32, len(nz))
	for _, off := range nz {
		i, j := off/stride, off%stride
		to := j*stride + i
		dst[to] = src[off]
		out[next[j]] = to
		next[j]++
	}
	return out
}

// posRows builds the positive-cell index of the dim×dim matrix flat (row
// pitch stride) from its ascending nonzero index: row i's positive cells
// are col/val[off[i]:off[i+1]], in column order.
func posRows[T float64 | int32](flat []T, nz []int32, dim, stride int32) (off, col []int32, val []T) {
	off = make([]int32, dim+1)
	for _, o := range nz {
		if v := flat[o]; v > 0 {
			off[o/stride+1]++
			col = append(col, o%stride)
			val = append(val, v)
		}
	}
	for i := int32(1); i <= dim; i++ {
		off[i] += off[i-1]
	}
	return off, col, val
}

// transposedScorer swaps the species arguments: σᵀ(x, y) = σ(y, x).
type transposedScorer struct{ base Scorer }

func (t transposedScorer) Score(a, b symbol.Symbol) float64 { return t.base.Score(b, a) }

// Transpose returns the scorer with species sides exchanged. Transposing a
// transpose returns the original scorer; transposing a dense matrix (float64
// or int32-quantized) returns the transposed dense matrix.
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
