package score

import (
	"math"
	"sync"

	"repro/internal/symbol"
)

// intHeadroomBits bounds the magnitude of a quantized cell: |q| ≤ 2^intHeadroomBits.
// DP accumulation adds at most min(|a|,|b|) cells, so with 31 value bits the
// quantized sums stay exact integers for words up to 2^(31−intHeadroomBits)
// regions; longer alignments fall back to the exact float64 path (see Fits).
const intHeadroomBits = 20

// CompiledInt is σ quantized to whole multiples of a unit: the embedded
// Compiled holds every cell of the source matrix as q = round(v/unit), an
// integer-valued float64 in the same sparse layout, with the cells that
// round to 0 dropped. The alignment kernels run their usual float64 sweeps
// over these cells and multiply by the unit once, at the boundary: inside
// the Fits headroom every partial sum is an integer below 2³¹, exact in
// float64, so the DP decides every tie as an integer DP would.
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
// float64 matrix it was built from stays reachable via Source. The embedded
// matrix's own accessors (Cells, PosRow, Index) read the quantized cells.
type CompiledInt struct {
	*Compiled

	// src is the exact float64 matrix the quantization was built from, read
	// by the fallback paths (out-of-range symbols, alignments too long for
	// the integer headroom).
	src     *Compiled
	unit    float64
	maxAbs  int32   // largest |q|, for overflow headroom checks
	cellErr float64 // max over cells of |v − q·unit|

	// trans caches Transposed, mirroring Compiled.
	transOnce sync.Once
	trans     *CompiledInt
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

// quanta scores σ in whole quantization units: the base scorer of a
// CompiledInt's matrix, consulted only for symbols beyond its range.
type quanta struct {
	src  Scorer
	unit float64
}

func (q quanta) Score(a, b symbol.Symbol) float64 { return math.Round(q.src.Score(a, b) / q.unit) }

// quantize rounds the nonzero cells of c to multiples of unit, keeping c's
// sparse layout: a cell that rounds to 0 is dropped, so every unlisted cell
// is +0 as in any Compiled. A zero cell quantizes to exactly 0 with no
// error, so walking c's cells yields the same maxAbs and cellErr as a pass
// over every cell.
func quantize(c *Compiled, unit float64) *CompiledInt {
	q := &Compiled{
		base:   quanta{src: c, unit: unit},
		n:      c.n,
		dim:    c.dim,
		rowOff: make([]int32, c.dim+1),
		col:    make([]int32, 0, len(c.col)),
		val:    make([]float64, 0, len(c.val)),
	}
	ci := &CompiledInt{Compiled: q, src: c, unit: unit}
	for i := int32(0); i < c.dim; i++ {
		for k := c.rowOff[i]; k < c.rowOff[i+1]; k++ {
			v := c.val[k]
			x := math.Round(v / unit)
			if e := math.Abs(v - x*unit); e > ci.cellErr {
				ci.cellErr = e
			}
			if x == 0 {
				continue
			}
			ci.maxAbs = max(ci.maxAbs, int32(math.Abs(x)))
			q.col = append(q.col, c.col[k])
			q.val = append(q.val, x)
		}
		q.rowOff[i+1] = int32(len(q.col))
	}
	q.buildPosRows()
	return ci
}

// Source returns the exact float64 matrix the quantization was built from.
func (c *CompiledInt) Source() *Compiled { return c.src }

// Unit returns the quantization unit: every cell is an integer multiple of it.
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
// stays inside the integer headroom: every partial total is at most
// (minLen+1)·(maxAbs+1) < 2³¹ in magnitude, an integer float64 holds
// exactly. Kernels fall back to the exact float64 matrix when this fails,
// so quantized mode is safe at any input size.
func (c *CompiledInt) Fits(minLen int) bool {
	return (int64(c.maxAbs)+1)*(int64(minLen)+1) <= math.MaxInt32
}

// Dequantize maps an accumulated integer score back to the float64 scale.
func (c *CompiledInt) Dequantize(q int64) float64 { return float64(q) * c.unit }

// Score implements Scorer: in-range pairs return the dequantized cell, so
// interface-path alignments agree with the quantized kernels; out-of-range
// symbols fall back to the exact base scorer.
func (c *CompiledInt) Score(a, b symbol.Symbol) float64 {
	ia, ib := int32(a)+c.n, int32(b)+c.n
	if uint32(ia) >= uint32(c.dim) || uint32(ib) >= uint32(c.dim) {
		return c.src.Score(a, b)
	}
	return c.Compiled.Score(a, b) * c.unit
}

// Transposed returns the quantized matrix of σᵀ, cached like
// Compiled.Transposed and linked back so t.Transposed() == c. The transpose
// shares the unit, error bound, and headroom of the original; its source is
// the transposed float64 matrix.
func (c *CompiledInt) Transposed() *CompiledInt {
	c.transOnce.Do(func() {
		t := &CompiledInt{
			Compiled: c.Compiled.Transposed(),
			src:      c.src.Transposed(),
			unit:     c.unit,
			maxAbs:   c.maxAbs,
			cellErr:  c.cellErr,
			trans:    c,
		}
		t.transOnce.Do(func() {})
		c.trans = t
	})
	return c.trans
}

// Prepare returns a kernel-ready scorer covering region IDs up to maxID:
// compiled matrices (float64 or quantized) that already cover the range
// pass through unchanged, anything else compiles to a float64 matrix.
// Solvers use it so a caller-selected scoring mode survives their internal
// compile step.
func Prepare(sc Scorer, maxID int32) Scorer {
	if ci, ok := sc.(*CompiledInt); ok && ci.n >= maxID {
		return ci
	}
	return Compile(sc, maxID)
}
