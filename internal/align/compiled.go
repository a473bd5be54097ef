package align

import (
	"repro/internal/score"
	"repro/internal/symbol"
)

// fastPath returns a compiled matrix covering symbol IDs up to need (the
// largest ID of the words), or nil when the interface path is preferable.
//
// A pre-compiled scorer is used whenever it covers the words — callers that
// compile once per solve (improve, onecsr, greedy, exact) always hit the
// compiled path, even for tiny site words. Any other scorer is compiled on the
// fly only when the DP cell count (area — callers pass the number of cells
// their kernel actually computes, e.g. the band area for ScoreBanded)
// dwarfs the O(dim²) compilation cost, so small one-off alignments never
// pay for a matrix they cannot amortize.
func fastPath(sc score.Scorer, need int32, area int) *score.Compiled {
	if c, ok := sc.(*score.Compiled); ok {
		if c.MaxID() >= need {
			return c
		}
		return nil // out-of-range symbols: stay on the (correct) interface path
	}
	dim := 2*int(need) + 1
	if area < 4*dim*dim {
		return nil
	}
	return score.Compile(sc, need)
}

// resolve picks the kernel fast path for a scorer: the compiled matrix the
// sparse float64 kernels run on, and the unit their results scale by, or a
// nil matrix for the interface path. The unit is 1 except for a quantized σ
// (score.CompiledInt), whose integer-valued matrix is used only when it
// covers the words AND its integer headroom holds for their lengths: the
// kernels then sum whole units exactly, and one multiplication at the
// boundary dequantizes each score, column σ and placement. When the
// headroom fails, the alignment silently falls back to the exact float64
// source matrix, so integer mode is safe at any input size.
func resolve(sc score.Scorer, a, b symbol.Word, area int) (*score.Compiled, float64) {
	return resolveID(sc, max(maxID(a), maxID(b)), min(len(a), len(b)), area)
}

// resolveID is resolve for words whose largest symbol ID is need and whose
// shorter length is short.
func resolveID(sc score.Scorer, need int32, short, area int) (*score.Compiled, float64) {
	if ci, ok := sc.(*score.CompiledInt); ok {
		switch {
		case ci.MaxID() < need:
			return nil, 1 // out-of-range symbols: interface path (dequantized cells)
		case ci.Fits(short):
			return ci.Compiled, ci.Unit()
		}
		return ci.Source(), 1
	}
	return fastPath(sc, need, area), 1
}

// maxID returns the largest symbol ID in w (0 for an empty word).
func maxID(w symbol.Word) int32 {
	var m int32
	for _, s := range w {
		if id := s.ID(); id > m {
			m = id
		}
	}
	return m
}

// The float64 kernels read σ through a per-call inverse index of b: indexF
// chains the positions of b by column, and hits intersects one σ row's
// listed cells with it, so a DP row costs its σ row's listed cells and their
// hits in b — not |b| lookups — and every unlisted cell is +0. Words of up
// to shortWord symbols skip the per-call tables: a short b is scanned once
// per listed cell instead of indexed, and a short a lists its hits row by
// row instead of memoizing them per distinct symbol.
const shortWord = 16

// indexF builds the inverse index of b for the float64 kernels: s.bi holds
// b's column indices and, when b is longer than shortWord, bHead/bNext
// chain each column's positions.
func (s *Scratch) indexF(b symbol.Word, c *score.Compiled) {
	s.indexWord(c, b)
	if len(b) > shortWord {
		s.indexB(2*int(c.MaxID()) + 1)
	}
}

// hits appends to s.pos/s.valF the cells of sym's σ row that hit b, as
// (position in b, value) pairs, and returns them in ascending position
// (indexF must have run). With positive set it lists only the positive
// cells — the free-gap kernels' view: DP rows are monotone nondecreasing,
// so a cell whose σ is ≤ 0 reduces exactly to max(up, left) and only
// positive cells ever add. Otherwise it lists every nonzero cell (the
// banded kernel, whose −∞ band edges break that argument).
func (s *Scratch) hits(c *score.Compiled, sym symbol.Symbol, positive bool) ([]int32, []float64) {
	cols, vals := c.PosRow(sym)
	if !positive {
		cols, vals = c.Cells(sym)
	}
	start := len(s.pos)
	for k, col := range cols {
		if len(s.bi) <= shortWord {
			for j, x := range s.bi {
				if x == col {
					s.pos = append(s.pos, int32(j))
					s.valF = append(s.valF, vals[k])
				}
			}
			continue
		}
		for j := s.bHead[col]; j != 0; j = s.bNext[j] {
			s.pos = append(s.pos, j-1)
			s.valF = append(s.valF, vals[k])
		}
	}
	pos, val := s.pos[start:], s.valF[start:]
	if len(cols) > 1 {
		sortPosValF(pos, val) // hits arrive grouped by column, each group ascending
	}
	return pos, val
}

// sigmaRows prepares one kernel call's σ rows of a against b (see hits).
func (s *Scratch) sigmaRows(a, b symbol.Word, c *score.Compiled, positive bool) {
	s.indexF(b, c)
	s.queryRows(a, c, positive)
}

// queryRows prepares the σ rows of a against the b that indexF last
// indexed: a long a gets a floatTable, a short one is listed row by row
// (sigmaRow).
func (s *Scratch) queryRows(a symbol.Word, c *score.Compiled, positive bool) {
	s.positive = positive
	s.aSpan = s.aSpan[:0]
	if len(a) > shortWord {
		s.floatTable(a, c, positive)
	}
}

// sigmaRow returns the cells of row i of a, whose symbol is sym (queryRows
// must have run).
func (s *Scratch) sigmaRow(c *score.Compiled, i int, sym symbol.Symbol) ([]int32, []float64) {
	if len(s.aSpan) > 0 {
		return s.row(i)
	}
	s.pos, s.valF = s.pos[:0], s.valF[:0]
	return s.hits(c, sym, s.positive)
}

// floatTable lists the hits of every row of a at once (indexF must have
// run): row i's cells are s.row(i). Each distinct symbol's hits are listed
// once and shared by its rows; the wavefront's tiles read the table
// concurrently.
func (s *Scratch) floatTable(a symbol.Word, c *score.Compiled, positive bool) {
	s.resetSparse(2*int(c.MaxID()) + 1)
	s.valF = s.valF[:0]
	if cap(s.aSpan) < len(a) {
		s.aSpan = make([][2]int32, len(a))
	}
	s.aSpan = s.aSpan[:len(a)]
	for i, sym := range a {
		ia := c.Index(sym)
		if s.rowOf[ia] == 0 {
			start := int32(len(s.pos))
			s.hits(c, sym, positive)
			s.spans = append(s.spans, [2]int32{start, int32(len(s.pos))})
			s.rowOf[ia] = int32(len(s.spans))
			s.rowIdx = append(s.rowIdx, ia)
		}
		s.aSpan[i] = s.spans[s.rowOf[ia]-1]
	}
}

// row returns the cells of position i of a in the floatTable.
func (s *Scratch) row(i int) (pos []int32, val []float64) {
	sp := s.aSpan[i]
	return s.pos[sp[0]:sp[1]], s.valF[sp[0]:sp[1]]
}

// sortPosValF insertion-sorts the parallel position/value pairs by
// position. Positions are distinct (each b cell lives in exactly one column
// chain) and arrive as a handful of ascending runs, for which insertion
// sort is near-linear.
func sortPosValF(pos []int32, val []float64) {
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

// skipRow advances the rolled DP row arr (monotone nondecreasing) by one
// row: the skip-propagation sweep shared by every free-gap kernel. The new
// row's boundary cell arr[0] becomes left (0 for a plain DP row, the
// carried left column for a wavefront tile; it must be ≥ the old arr[0]),
// and pos/val are the row's positive cells, pos ascending and offset by off
// (cell pos[k] updates arr[pos[k]−off+1]).
//
// A cell with no positive σ reduces to max(up, left), which leaves an
// add-free span unchanged once the running maximum has been absorbed, so
// the loop touches only the positive cells plus the cells a diagonal add is
// still rippling through. The skipped writes are provably no-ops and the
// per-cell arithmetic is the dense update's (one add, then maxima), so
// every cell of the row is bit-identical to the full sweep.
func skipRow(arr []float64, left float64, pos []int32, val []float64, off int32) {
	n := len(arr) - 1
	// j is the next column to finalize, best the new value at j-1, and
	// oldPrev the previous row's value at j-1 (the diagonal input).
	j := 1
	best, oldPrev := left, arr[0]
	arr[0] = left
	for k, p := range pos {
		pj := int(p-off) + 1
		// Ripple best through the add-free span [j, pj): once it is
		// absorbed (best ≤ old cell), the rest of the span is unchanged
		// and can be skipped — the old values are exactly the new ones.
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
		v := oldPrev + val[k]
		if up > v {
			v = up
		}
		if best > v {
			v = best
		}
		arr[pj] = v
		best = v
		oldPrev = up
		j = pj + 1
	}
	// Tail: ripple the last add (or the new left cell) until absorbed.
	for j <= n && best > arr[j] {
		arr[j] = best
		j++
	}
}

// scoreCompiled is Score on the sparse fast path: the skip sweep (skipRow)
// over each row's positive cells, with rows that score positively against
// nothing in b skipped whole.
func (s *Scratch) scoreCompiled(a, b symbol.Word, c *score.Compiled) float64 {
	n := len(b)
	s.sigmaRows(a, b, c, true)
	arr, _ := s.floatRows(n + 1)
	for i, sym := range a {
		if pos, val := s.sigmaRow(c, i, sym); len(pos) > 0 {
			skipRow(arr, 0, pos, val, 0)
		}
	}
	return arr[n]
}

// fillCompiled computes the full DP matrix of Align on the sparse fast
// path: each row starts as a copy of the one above and takes the skip
// sweep. The matrix is arena-backed: valid until the scratch's next matrix
// request.
func (s *Scratch) fillCompiled(a, b symbol.Word, c *score.Compiled) [][]float64 {
	d := s.matrixF(len(a), len(b))
	s.sigmaRows(a, b, c, true)
	for i := 1; i <= len(a); i++ {
		copy(d[i], d[i-1])
		if pos, val := s.sigmaRow(c, i-1, a[i-1]); len(pos) > 0 {
			skipRow(d[i], 0, pos, val, 0)
		}
	}
	return d
}

// lastRowCompiledInto is lastRow on the sparse fast path, sweeping D's
// rows in dst (resized as needed) so dst ends as D[len(a)].
func (s *Scratch) lastRowCompiledInto(dst []float64, a, b symbol.Word, c *score.Compiled) []float64 {
	s.sigmaRows(a, b, c, true)
	dst = growF(dst, len(b)+1)
	clear(dst)
	for i, sym := range a {
		if pos, val := s.sigmaRow(c, i, sym); len(pos) > 0 {
			skipRow(dst, 0, pos, val, 0)
		}
	}
	return dst
}

// scoreBandedCompiled is ScoreBanded on the sparse fast path. Cells next to
// the −∞ band edge are not monotone — where consecutive bands do not
// overlap, a cell's only finite input is its diagonal, and a negative σ
// decides it — so the table keeps every nonzero cell and the band is swept
// in full, over the row's cells scattered into a band-wide σ row g; unlisted
// cells add +0 exactly as a dense row would.
func (s *Scratch) scoreBandedCompiled(a, b symbol.Word, c *score.Compiled, band int) float64 {
	m, n := len(a), len(b)
	s.sigmaRows(a, b, c, false)
	prev, cur := s.floatRows(n + 1)
	s.gf = growF(s.gf, n+1)
	g := s.gf // g[j] = σ(a[i-1], b[j-1]) across the band
	for i := 1; i <= m; i++ {
		center := i * n / m
		lo := max(1, center-band)
		hi := min(n, center+band)
		for j := range cur {
			cur[j] = minusInf
		}
		cur[0] = 0
		if lo <= hi {
			clear(g[lo : hi+1])
		}
		pos, val := s.sigmaRow(c, i-1, a[i-1])
		for k, p := range pos {
			if j := int(p) + 1; j >= lo && j <= hi {
				g[j] = val[k]
			}
		}
		for j := lo; j <= hi; j++ {
			best := minusInf
			if prev[j-1] > minusInf/2 {
				best = prev[j-1] + g[j]
			}
			if prev[j] > best {
				best = prev[j]
			}
			if cur[j-1] > best {
				best = cur[j-1]
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	best := 0.0
	for j := 0; j <= n; j++ {
		if prev[j] > best {
			best = prev[j]
		}
	}
	return best
}
