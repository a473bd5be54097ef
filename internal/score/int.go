package score

import (
	"math"
	"sync"

	"repro/internal/symbol"
)

// intHeadroomBits bounds the magnitude of a quantized cell: |q| ≤ 2^intHeadroomBits.
// DP accumulation adds at most min(|a|,|b|) cells, so with 31 value bits in an
// int32 the integer kernels are overflow-safe for words up to
// 2^(31−intHeadroomBits) regions; longer alignments fall back to the exact
// float64 path (see Fits).
const intHeadroomBits = 20

// CompiledInt is an integer-quantized dense σ-matrix: every cell of a
// *Compiled rounded to the nearest multiple of a quantization unit and stored
// as that multiple in a flat []int32. Alignment kernels that detect a
// *CompiledInt run their DP entirely in int32 — contiguous 4-byte rows,
// branch-light max loops — and dequantize only the final total.
//
// The quantization unit is chosen at build time (see (*Compiled).Int): the
// declared unit of a Quantized base scorer when one exists, 1 when every cell
// is already integral (the common integer-σ case, which quantizes exactly),
// and otherwise maxAbs/2^20 auto-derived from the matrix's value range. The
// per-cell rounding error is recorded in cellErr, giving the provable bound
//
//	|Dequantize(intScore) − floatScore| ≤ cellErr · min(|a|, |b|)
//
// for any alignment of words a, b (Bound); when cellErr is 0 the two modes
// score identically (Exact).
//
// A CompiledInt is itself a Scorer — Score returns the dequantized cell — so
// it can flow through every kernel and solver interface unchanged; the exact
// float64 matrix it was built from stays reachable via Source.
type CompiledInt struct {
	// src is the exact float64 matrix the quantization was built from, read
	// by the fallback paths (out-of-range symbols, alignments too long for
	// int32 headroom).
	src  *Compiled
	unit float64
	n    int32 // maximum region ID covered
	dim  int32 // 2n+1 oriented symbols
	// stride is the row pitch of flat: dim rounded up to the lane width
	// (LaneWidth), so every row starts lane-aligned and the lane-blocked
	// kernels can read full 8-cell blocks without a per-row remainder
	// special case. Padding cells are zero and unreachable through Index.
	stride  int32
	flat    []int32
	maxAbs  int32   // largest |cell|, for overflow headroom checks
	cellErr float64 // max over cells of |v − q·unit|
	// nz lists the flat offsets (row pitch stride) of the nonzero cells in
	// ascending order, so the transpose and the positive-row index walk the
	// nonzero cells instead of all dim·stride of them.
	nz []int32

	// trans caches Transposed, mirroring Compiled.
	transOnce sync.Once
	trans     *CompiledInt

	// Per-row positive-column index, built lazily (posOnce) and shared by
	// every solve over this matrix: row a's positive cells are
	// posCol/posVal[posOff[ia]:posOff[ia+1]] (ia the row index). The sparse
	// sweep kernels intersect these few cells with the word b instead of
	// scanning a full σ row per symbol — σ matrices are overwhelmingly
	// zero, so the positive lists are tiny.
	posOnce sync.Once
	posOff  []int32
	posCol  []int32
	posVal  []int32
}

// Int returns the integer-quantized form of the matrix, computed once and
// cached — solvers and the batch pool's per-alphabet cache share one
// quantization per compiled σ, exactly as they share one transpose.
func (c *Compiled) Int() *CompiledInt {
	c.intOnce.Do(func() {
		c.intc = quantize(c, chooseUnit(c))
	})
	return c.intc
}

// IntWithUnit quantizes the matrix with an explicit unit (not cached). A
// non-positive unit falls back to the automatic choice; a unit too fine for
// the matrix's value range is coarsened so every cell stays well inside
// int32 (|q| ≤ 2^30).
func (c *Compiled) IntWithUnit(unit float64) *CompiledInt {
	if unit <= 0 {
		unit = chooseUnit(c)
	}
	if m := maxAbsCell(c); m/unit > float64(int32(1)<<30) {
		unit = m / float64(int32(1)<<30)
	}
	return quantize(c, unit)
}

// maxAbsCell returns the largest |cell| of the compiled matrix.
func maxAbsCell(c *Compiled) float64 {
	v := 0.0
	for _, x := range c.val {
		if a := math.Abs(x); a > v {
			v = a
		}
	}
	return v
}

// chooseUnit picks the quantization unit for a compiled matrix:
//
//  1. the declared unit of a Quantized base scorer, when its headroom holds;
//  2. 1, when every cell is integral (quantization is then exact);
//  3. maxAbs/2^20 otherwise — ~20 significant bits per cell, leaving
//     overflow headroom for alignments of up to 2^11 regions.
func chooseUnit(c *Compiled) float64 {
	maxAbs := maxAbsCell(c)
	if maxAbs == 0 {
		return 1
	}
	headroom := float64(int32(1) << intHeadroomBits)
	if q, ok := c.base.(Quantized); ok && q.Unit > 0 && maxAbs/q.Unit <= 2*headroom {
		return q.Unit
	}
	integral := true
	for _, v := range c.val {
		if v != math.Trunc(v) {
			integral = false
			break
		}
	}
	if integral && maxAbs <= 2*headroom {
		return 1
	}
	return maxAbs / headroom
}

// LaneWidth is the int32 lane block of the vectorized DP kernels: quantized
// matrix rows are padded to a multiple of it at compile time.
const LaneWidth = 8

// padStride rounds a row length up to the lane width.
func padStride(dim int32) int32 { return (dim + LaneWidth - 1) &^ (LaneWidth - 1) }

// quantize rounds the nonzero cells of c to multiples of unit into a dense
// int32 matrix (row pitch padStride(dim)). A zero cell quantizes to exactly
// 0 with no error, so walking c's cells yields the same cells, maxAbs and
// cellErr as a pass over every cell. CSR order is row-major with ascending
// columns, so the quantized nonzero offsets come out ascending.
func quantize(c *Compiled, unit float64) *CompiledInt {
	ci := &CompiledInt{
		src:    c,
		unit:   unit,
		n:      c.n,
		dim:    c.dim,
		stride: padStride(c.dim),
	}
	ci.flat = make([]int32, int(ci.stride)*int(c.dim))
	for i := int32(0); i < c.dim; i++ {
		for k := c.rowOff[i]; k < c.rowOff[i+1]; k++ {
			v := c.val[k]
			q := int32(math.Round(v / unit))
			if e := math.Abs(v - float64(q)*unit); e > ci.cellErr {
				ci.cellErr = e
			}
			if q == 0 {
				continue
			}
			ci.maxAbs = max(ci.maxAbs, q, -q)
			to := i*ci.stride + c.col[k]
			ci.flat[to] = q
			ci.nz = append(ci.nz, to)
		}
	}
	return ci
}

// Source returns the exact float64 matrix the quantization was built from.
func (c *CompiledInt) Source() *Compiled { return c.src }

// MaxID returns the largest region ID the matrix covers.
func (c *CompiledInt) MaxID() int32 { return c.n }

// Unit returns the quantization unit: every cell is an int32 multiple of it.
func (c *CompiledInt) Unit() float64 { return c.unit }

// Exact reports whether quantization was lossless: every cell dequantizes to
// the exact float64 the source matrix holds, so integer and float kernels
// agree on every alignment (σ values that are unit multiples, e.g. integral
// tables, always quantize exactly).
func (c *CompiledInt) Exact() bool { return c.cellErr == 0 }

// Bound returns the worst-case absolute error of a dequantized alignment
// score against the exact float64 score, for alignments with at most pathLen
// scoring columns (pathLen = min(|a|, |b|) is always safe): each column's σ
// is off by at most the recorded per-cell rounding error.
func (c *CompiledInt) Bound(pathLen int) float64 {
	if pathLen < 0 {
		pathLen = 0
	}
	return c.cellErr * float64(pathLen)
}

// Fits reports whether an alignment DP over words of minimum length minLen
// can accumulate in int32 without overflow: every partial total is at most
// (minLen+1)·(maxAbs+1) in magnitude. Kernels fall back to the exact float64
// matrix when this fails, so quantized mode is safe at any input size.
func (c *CompiledInt) Fits(minLen int) bool {
	return (int64(c.maxAbs)+1)*(int64(minLen)+1) <= math.MaxInt32
}

// Dequantize maps an accumulated integer score back to the float64 scale.
func (c *CompiledInt) Dequantize(q int64) float64 { return float64(q) * c.unit }

// Score implements Scorer: in-range pairs return the dequantized cell, so
// interface-path alignments agree with the integer kernels; out-of-range
// symbols fall back to the exact base scorer.
func (c *CompiledInt) Score(a, b symbol.Symbol) float64 {
	ia, ib := int32(a)+c.n, int32(b)+c.n
	if uint32(ia) >= uint32(c.dim) || uint32(ib) >= uint32(c.dim) {
		return c.src.Score(a, b)
	}
	return float64(c.flat[ia*c.stride+ib]) * c.unit
}

// Row returns the dense quantized row for symbol a: Row(a)[Index(b)] is the
// integer multiple of Unit scoring (a, b). The caller must ensure |a| ≤
// MaxID; the returned slice must not be modified. The row is padded to
// LaneWidth with zero cells beyond index dim−1.
func (c *CompiledInt) Row(a symbol.Symbol) []int32 {
	ia := int(int32(a) + c.n)
	return c.flat[ia*int(c.stride) : (ia+1)*int(c.stride)]
}

// Index returns the column index of symbol b within a Row.
func (c *CompiledInt) Index(b symbol.Symbol) int32 { return int32(b) + c.n }

// IndexWordInto maps every symbol of w to its column index, appending into
// dst[:0] so hot loops reuse one backing array (see Compiled.IndexWordInto).
func (c *CompiledInt) IndexWordInto(dst []int32, w symbol.Word) []int32 {
	dst = dst[:0]
	for _, s := range w {
		dst = append(dst, int32(s)+c.n)
	}
	return dst
}

// PosRow returns the positive cells of symbol a's quantized row as parallel
// column-index and value slices (column order, ascending). The index over
// all rows is built once per matrix and cached; the returned slices must
// not be modified. The caller must ensure |a| ≤ MaxID.
func (c *CompiledInt) PosRow(a symbol.Symbol) (cols, vals []int32) {
	c.posOnce.Do(c.buildPosRows)
	ia := int(int32(a) + c.n)
	lo, hi := c.posOff[ia], c.posOff[ia+1]
	return c.posCol[lo:hi], c.posVal[lo:hi]
}

// buildPosRows builds the positive-cell index from the ascending nonzero
// offsets: row i's positive cells are posCol/posVal[posOff[i]:posOff[i+1]],
// in column order.
func (c *CompiledInt) buildPosRows() {
	c.posOff = make([]int32, c.dim+1)
	for _, o := range c.nz {
		if v := c.flat[o]; v > 0 {
			c.posOff[o/c.stride+1]++
			c.posCol = append(c.posCol, o%c.stride)
			c.posVal = append(c.posVal, v)
		}
	}
	for i := int32(1); i <= c.dim; i++ {
		c.posOff[i] += c.posOff[i-1]
	}
}

// Transposed returns the quantized matrix of σᵀ, cached like
// Compiled.Transposed and linked back so t.Transposed() == c. The transpose
// shares the unit, error bound, and headroom of the original; its source is
// the transposed float64 matrix.
func (c *CompiledInt) Transposed() *CompiledInt {
	c.transOnce.Do(func() {
		t := &CompiledInt{
			src:     c.src.Transposed(),
			unit:    c.unit,
			n:       c.n,
			dim:     c.dim,
			stride:  c.stride,
			flat:    make([]int32, len(c.flat)),
			maxAbs:  c.maxAbs,
			cellErr: c.cellErr,
		}
		t.nz = transposeCells(t.flat, c.flat, c.nz, c.dim, c.stride)
		t.trans = c
		t.transOnce.Do(func() {})
		c.trans = t
	})
	return c.trans
}

// Prepare returns a kernel-ready scorer covering region IDs up to maxID:
// compiled matrices (float64 or int32-quantized) that already cover the
// range pass through unchanged, anything else compiles to a float64 matrix.
// Solvers use it so a caller-selected scoring mode survives their internal
// compile step.
func Prepare(sc Scorer, maxID int32) Scorer {
	if ci, ok := sc.(*CompiledInt); ok && ci.n >= maxID {
		return ci
	}
	return Compile(sc, maxID)
}

// transposeCells scatters the nonzero cells of the dim×dim matrix src (row
// pitch stride, nonzero offsets nz in ascending order) into the zeroed dst
// at their transposed positions, and returns dst's ascending nonzero index.
// The index is a counting sort of nz by column: nz is row-major, so rows
// stay ascending within each column. Cost is O(len(nz) + dim).
func transposeCells(dst, src []int32, nz []int32, dim, stride int32) []int32 {
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
