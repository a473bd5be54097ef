package align

import (
	"math"

	"repro/internal/score"
	"repro/internal/symbol"
)

// Integer-quantized kernels: the same free-gap DP as the float64 fast path,
// run entirely over contiguous int32 rows of a score.CompiledInt and
// dequantized only at the boundary. Two complementary strategies split the
// kernels:
//
//   - Sparse skip sweeps (Score, ScoreAtLeast, Placements): DP rows are
//     monotone nondecreasing, so cells without a positive σ reduce to
//     max(up, left-max) and whole add-free spans are provably unchanged —
//     the loop touches only the positive columns plus the cells a diagonal
//     add is still rippling through.
//   - Lane-blocked dense rows (Align's fill, lastRow, wavefront tiles):
//     when every cell must be materialized, the row runs through dpRowInt
//     (lanes.go) — 8 int32 cells per iteration on the portable tier, an
//     AVX2 prefix-max scan on amd64 — over a σ row pre-gathered into
//     contiguous memory (Scratch.gatherI).
//
// resolve guarantees the accumulation headroom before any of these run, so
// no partial total can wrap.

// minusInfI is the unreachable-cell sentinel of the banded int32 kernel,
// deep enough below zero that adding any in-headroom cell cannot wrap.
const minusInfI = int32(math.MinInt32 / 4)

// sparseRowsI builds, for each distinct symbol of a, the positive cells of
// its quantized σ row that hit b (s.bi must already hold b's column
// indices), recording each span's maximum value (spanMax) — the row's
// largest possible gain, which the early-exit bounds of ScoreAtLeast and
// placementsInt sum into a suffix bound on the remaining rows.
//
// Like the float64 kernels' hits, it intersects the matrix's cached
// positive-column lists (CompiledInt.PosRow — σ rows are overwhelmingly
// zero) with an inverse index of b built in one O(|b|) pass, so the
// per-symbol cost is proportional to the row's positive cells and their
// hits in b rather than to |b|.
func (s *Scratch) sparseRowsI(a symbol.Word, c *score.CompiledInt) {
	dim := 2*int(c.MaxID()) + 1
	s.resetSparse(dim)
	s.indexB(dim)
	for _, sym := range a {
		ia := c.Index(sym)
		if s.rowOf[ia] != 0 {
			continue
		}
		cols, vals := c.PosRow(sym)
		start := int32(len(s.pos))
		mx := int32(0)
		for k, col := range cols {
			h := s.bHead[col]
			if h == 0 {
				continue
			}
			v := vals[k]
			for j := h; j != 0; j = s.bNext[j] {
				s.pos = append(s.pos, j-1)
				s.valI = append(s.valI, v)
			}
			if v > mx {
				mx = v
			}
		}
		// Hits arrive grouped by column (each group ascending); the sweep
		// needs ascending positions. Rows hit through one column — the
		// common case — are already sorted and cost a linear pass.
		sortPosVal(s.pos[start:], s.valI[start:])
		s.spans = append(s.spans, [2]int32{start, int32(len(s.pos))})
		s.spanMax = append(s.spanMax, mx)
		s.rowOf[ia] = int32(len(s.spans))
		s.rowIdx = append(s.rowIdx, ia)
	}
}

// sortPosVal insertion-sorts the parallel position/value pairs by position.
// Positions are distinct (each b cell lives in exactly one column chain)
// and arrive as a handful of ascending runs, for which insertion sort is
// near-linear.
func sortPosVal(pos, val []int32) {
	for i := 1; i < len(pos); i++ {
		p, v := pos[i], val[i]
		j := i
		for j > 0 && pos[j-1] > p {
			pos[j], val[j] = pos[j-1], val[j-1]
			j--
		}
		pos[j], val[j] = p, v
	}
}

// scoreInt is Score on the int32 fast path: the sparse skip sweep over
// positive columns (see skipRow), which beats even the lane-blocked
// dense row because typical σ rows score positively against few columns.
func (s *Scratch) scoreInt(a, b symbol.Word, c *score.CompiledInt) float64 {
	n := len(b)
	if len(a)*n < 8*int(c.MaxID())+4 {
		return s.scoreIntSmall(a, b, c)
	}
	s.indexWordInt(c, b)
	s.sparseRowsI(a, c)
	arr, _ := s.intRows(n + 1)
	for i := 1; i <= len(a); i++ {
		span := s.spans[s.rowOf[c.Index(a[i-1])]-1]
		pos, val := s.pos[span[0]:span[1]], s.valI[span[0]:span[1]]
		if len(pos) == 0 {
			continue // no adds: the whole row is a no-op
		}
		skipRow(arr, 0, pos, val, 0)
	}
	return c.Dequantize(int64(arr[n]))
}

// scoreAtLeastInt is ScoreAtLeast on the int32 fast path: the scoreInt
// sweep with an adaptive early exit. Every DP path gains at most one σ cell
// per row, so after row i the final score is bounded by
//
//	max_j D[i][j] + Σ_{i' > i} spanMax(i')
//
// and the kernel bails with that bound as soon as it cannot clear atLeast.
// The bound arithmetic is exact in integers — no rounding direction to get
// wrong, which is why the early exit lives on the quantized tier only.
func (s *Scratch) scoreAtLeastInt(a, b symbol.Word, c *score.CompiledInt, atLeast float64) float64 {
	n := len(b)
	if len(a)*n < 8*int(c.MaxID())+4 {
		return s.scoreIntSmall(a, b, c) // small words: exact is cheapest
	}
	s.indexWordInt(c, b)
	s.sparseRowsI(a, c)
	remaining := int64(0)
	for _, sym := range a {
		remaining += int64(s.spanMax[s.rowOf[c.Index(sym)]-1])
	}
	if ub := c.Dequantize(remaining); ub <= atLeast {
		return ub // the all-rows gain bound already rules the pair out
	}
	arr, _ := s.intRows(n + 1)
	for i := 1; i <= len(a); i++ {
		r := s.rowOf[c.Index(a[i-1])] - 1
		span := s.spans[r]
		remaining -= int64(s.spanMax[r])
		pos, val := s.pos[span[0]:span[1]], s.valI[span[0]:span[1]]
		if len(pos) == 0 {
			continue // row max and suffix bound both unchanged
		}
		skipRow(arr, 0, pos, val, 0)
		// arr[n] is the row maximum (rows are monotone nondecreasing).
		if ub := c.Dequantize(int64(arr[n]) + remaining); ub <= atLeast {
			return ub
		}
	}
	return c.Dequantize(int64(arr[n]))
}

// scoreIntSmall is the int32 Score loop for words smaller than the
// alphabet: per-row gather plus the lane-blocked row kernel, no per-call
// tables.
func (s *Scratch) scoreIntSmall(a, b symbol.Word, c *score.CompiledInt) float64 {
	n := len(b)
	bi := s.indexWordInt(c, b)
	prev, cur := s.intRows(n + 1)
	for i := 1; i <= len(a); i++ {
		cur[0] = 0
		s.dpRowIntAuto(prev, cur, c.Row(a[i-1]), bi)
		prev, cur = cur, prev
	}
	return c.Dequantize(int64(prev[n]))
}

// fillInt computes the full int32 DP matrix of Align, one lane-blocked row
// at a time.
func (s *Scratch) fillInt(a, b symbol.Word, c *score.CompiledInt) [][]int32 {
	m, n := len(a), len(b)
	d := s.matrixI(m, n)
	bi := s.indexWordInt(c, b)
	for i := 1; i <= m; i++ {
		s.dpRowIntAuto(d[i-1], d[i], c.Row(a[i-1]), bi) // d[i][0] preset to 0 by matrixI
	}
	return d
}

// alignInt is Align on the int32 fast path: integer fill and traceback,
// with column σ contributions dequantized into the emitted Cols.
func (s *Scratch) alignInt(a, b symbol.Word, c *score.CompiledInt) (float64, []Col) {
	m, n := len(a), len(b)
	d := s.fillInt(a, b, c)
	var cols []Col
	i, j := m, n
	for i > 0 && j > 0 {
		q := c.Row(a[i-1])[c.Index(b[j-1])]
		switch {
		case q > 0 && d[i][j] == d[i-1][j-1]+q:
			cols = append(cols, Col{I: i - 1, J: j - 1, Sigma: c.Dequantize(int64(q))})
			i, j = i-1, j-1
		case d[i][j] == d[i-1][j]:
			i--
		case d[i][j] == d[i][j-1]:
			j--
		default:
			// Zero or negative σ diagonal that ties; skip it without
			// recording a scoring column.
			i, j = i-1, j-1
		}
	}
	for l, r := 0, len(cols)-1; l < r; l, r = l+1, r-1 {
		cols[l], cols[r] = cols[r], cols[l]
	}
	return c.Dequantize(int64(d[m][n])), cols
}

// lastRowIntInto computes the int32 last DP row into dst with the
// lane-blocked row kernel.
func (s *Scratch) lastRowIntInto(dst []int32, a, b symbol.Word, c *score.CompiledInt) []int32 {
	n := len(b)
	bi := s.indexWordInt(c, b)
	prev, cur := s.intRows(n + 1)
	for i := 1; i <= len(a); i++ {
		cur[0] = 0
		s.dpRowIntAuto(prev, cur, c.Row(a[i-1]), bi)
		prev, cur = cur, prev
	}
	dst = growI(dst, n+1)
	copy(dst, prev)
	return dst
}

// scoreBandedInt is ScoreBanded on the int32 fast path. The cell update
// keeps the per-cell sentinel guard on the scalar tier — band-edge cells
// can carry legitimately negative values, which the vector tier's zero-fill
// prefix scan does not admit (see dpRowInt's ≥ 0 contract) — and reads σ
// through the column index map directly: band segments are narrow, so a
// separate gather pass costs more than it saves.
func (s *Scratch) scoreBandedInt(a, b symbol.Word, c *score.CompiledInt, band int) float64 {
	m, n := len(a), len(b)
	bi := s.indexWordInt(c, b)
	prev, cur := s.intRows(n + 1)
	for i := 1; i <= m; i++ {
		center := i * n / m
		lo := max(1, center-band)
		hi := min(n, center+band)
		for j := range cur {
			cur[j] = minusInfI
		}
		cur[0] = 0
		row := c.Row(a[i-1])
		for j := lo; j <= hi; j++ {
			best := minusInfI
			if prev[j-1] > minusInfI/2 {
				best = prev[j-1] + row[bi[j-1]]
			}
			best = max(best, prev[j])
			best = max(best, cur[j-1])
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	best := int32(0)
	for j := 0; j <= n; j++ {
		best = max(best, prev[j])
	}
	return c.Dequantize(int64(best))
}

// The int32 placement kernel packs a DP cell's (value, start) pair into one
// int64 — value in the high 32 bits, start in the low 32 — so the kernel's
// lexicographic order (larger value wins, ties prefer the larger start, the
// exact tie-break of the float kernel) is plain int64 comparison: starts
// are nonnegative and below 2³¹, so the low word compares like an unsigned
// and never disturbs the value ordering.

func pkPack(v, st int32) int64 { return int64(v)<<32 | int64(uint32(st)) }
func pkVal(p int64) int32      { return int32(p >> 32) }
func pkStart(p int64) int32    { return int32(uint32(p)) }

// placementsInt is Placements on the int32 fast path: the packed-pair form
// of the skip-propagation sweep. Packed rows are monotone nondecreasing
// exactly like score rows (each is a running lexicographic prefix max), so
// the same absorption argument applies: add-free spans are unchanged, rows
// whose symbol has no positive column are skipped whole, and the sweep
// touches only positive columns plus active ripples. The frontier depends
// only on the final row, so a suffix gain bound also ends the sweep early
// once no remaining row can lift any final value above minScore — the
// common case for the low-similarity fragment pairs that dominate TPA
// candidate evaluation. minScore is compared on dequantized values, so the
// emitted windows satisfy the caller's float64 threshold exactly as the
// float kernel would. The frontier is appended to dst.
func (s *Scratch) placementsInt(dst []Placement, a, b symbol.Word, c *score.CompiledInt, minScore float64) []Placement {
	m, n := len(a), len(b)
	s.indexWordInt(c, b)
	s.sparseRowsI(a, c)
	remaining := int64(0)
	for _, sym := range a {
		remaining += int64(s.spanMax[s.rowOf[c.Index(sym)]-1])
	}
	if c.Dequantize(remaining) <= minScore {
		return dst // even the sum of per-row best gains cannot clear it
	}
	pk0 := pkPack(0, noStart)
	arr := growI64(s.pk, n+1)
	s.pk = arr
	for j := range arr {
		arr[j] = pk0
	}
	for i := 1; i <= m; i++ {
		r := s.rowOf[c.Index(a[i-1])] - 1
		span := s.spans[r]
		remaining -= int64(s.spanMax[r])
		pos, val := s.pos[span[0]:span[1]], s.valI[span[0]:span[1]]
		if len(pos) == 0 {
			continue // no adds: the packed row is provably unchanged
		}
		j := 1
		best, oldPrev := arr[0], arr[0]
		for k := 0; k < len(pos); k++ {
			pj := int(pos[k]) + 1
			for j < pj {
				old := arr[j]
				if best <= old {
					j = pj
					best = arr[pj-1]
					oldPrev = best
					break
				}
				arr[j] = best
				oldPrev = old
				j++
			}
			up := arr[pj]
			st := pkStart(oldPrev)
			if st == noStart {
				st = int32(pj - 1) // this diagonal is the first scoring column
			}
			v := pkPack(pkVal(oldPrev)+val[k], st)
			v = max(v, up)
			v = max(v, best)
			arr[pj] = v
			best = v
			oldPrev = up
			j = pj + 1
		}
		for j <= n && best > arr[j] {
			arr[j] = best
			j++
		}
		if c.Dequantize(int64(pkVal(arr[n]))+remaining) <= minScore {
			return dst // no remaining row can lift the frontier above minScore
		}
	}
	emits := func(j int) bool {
		return pkVal(arr[j]) > pkVal(arr[j-1]) && pkStart(arr[j]) != noStart &&
			c.Dequantize(int64(pkVal(arr[j]))) > minScore
	}
	if dst == nil {
		if dst = exactPlacements(n, emits); dst == nil {
			return nil
		}
	}
	for j := 1; j <= n; j++ {
		if emits(j) {
			dst = append(dst, Placement{Lo: int(pkStart(arr[j])), Hi: j, Score: c.Dequantize(int64(pkVal(arr[j])))})
		}
	}
	return dst
}
