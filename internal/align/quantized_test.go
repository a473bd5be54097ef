package align

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/score"
	"repro/internal/symbol"
)

// intRef is the reference for the kernels on a quantized σ: plain dense
// DPs in int64 over the quantized cells round(σ(x, y)/unit), read from the
// source matrix rather than from the quantized one, each result multiplied
// by the unit once at the end.
type intRef struct {
	src  *score.Compiled
	unit float64
}

// q returns the quantized cell of (x, y), in units.
func (r intRef) q(x, y symbol.Symbol) int64 {
	return int64(math.Round(r.src.Score(x, y) / r.unit))
}

// fill returns the full free-gap DP matrix of a against b.
func (r intRef) fill(a, b symbol.Word) [][]int64 {
	d := make([][]int64, len(a)+1)
	for i := range d {
		d[i] = make([]int64, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			d[i][j] = max(d[i-1][j-1]+r.q(a[i-1], b[j-1]), d[i-1][j], d[i][j-1])
		}
	}
	return d
}

// align returns the optimal score and the scoring columns of the traceback
// Align documents: a positive diagonal that attains the cell first, then
// up, then left.
func (r intRef) align(a, b symbol.Word) (float64, []Col) {
	d := r.fill(a, b)
	var cols []Col
	i, j := len(a), len(b)
	for i > 0 && j > 0 {
		q := r.q(a[i-1], b[j-1])
		switch {
		case q > 0 && d[i][j] == d[i-1][j-1]+q:
			cols = append(cols, Col{I: i - 1, J: j - 1, Sigma: float64(q) * r.unit})
			i, j = i-1, j-1
		case d[i][j] == d[i-1][j]:
			i--
		case d[i][j] == d[i][j-1]:
			j--
		default:
			i, j = i-1, j-1
		}
	}
	slices.Reverse(cols)
	return float64(d[len(a)][len(b)]) * r.unit, cols
}

// banded is ScoreBanded's DP: cells outside the band (and cells whose every
// input lies outside it) are unreachable, and the result is the best cell
// of the last row, at least 0.
func (r intRef) banded(a, b symbol.Word, band int) float64 {
	m, n := len(a), len(b)
	const unreachable = math.MinInt64
	prev, cur := make([]int64, n+1), make([]int64, n+1)
	for i := 1; i <= m; i++ {
		center := i * n / m
		lo, hi := max(1, center-band), min(n, center+band)
		for j := range cur {
			cur[j] = unreachable
		}
		cur[0] = 0
		for j := lo; j <= hi; j++ {
			best := int64(unreachable)
			if prev[j-1] != unreachable {
				best = prev[j-1] + r.q(a[i-1], b[j-1])
			}
			cur[j] = max(best, prev[j], cur[j-1])
		}
		prev, cur = cur, prev
	}
	return float64(max(0, slices.Max(prev))) * r.unit
}

// placements is the Placements frontier over (value, start) pairs: larger
// value wins, ties prefer the larger start, and a window is emitted where
// the last row's value strictly rises, its dequantized score clears
// minScore, and it has a scoring column.
func (r intRef) placements(a, b symbol.Word, minScore float64) []Placement {
	n := len(b)
	type cell struct{ v, s int64 }
	better := func(x, y cell) bool { return x.v > y.v || (x.v == y.v && x.s > y.s) }
	prev, cur := make([]cell, n+1), make([]cell, n+1)
	for j := range prev {
		prev[j] = cell{0, int64(noStart)}
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = cell{0, int64(noStart)}
		for j := 1; j <= n; j++ {
			best := prev[j]
			if better(cur[j-1], best) {
				best = cur[j-1]
			}
			if q := r.q(a[i-1], b[j-1]); q > 0 {
				d := cell{prev[j-1].v + q, prev[j-1].s}
				if d.s == int64(noStart) {
					d.s = int64(j - 1)
				}
				if better(d, best) {
					best = d
				}
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	var out []Placement
	for j := 1; j <= n; j++ {
		if prev[j].v > prev[j-1].v && float64(prev[j].v)*r.unit > minScore && prev[j].s != int64(noStart) {
			out = append(out, Placement{Lo: int(prev[j].s), Hi: j, Score: float64(prev[j].v) * r.unit})
		}
	}
	return out
}

// sameBitsF reports float64 equality bit for bit.
func sameBitsF(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestQuantizedKernelsMatchIntReference holds every kernel on a quantized
// σ to the int64 reference bit for bit: Score, Align (score and columns),
// ScoreBanded (including bands that touch only diagonally, where negative
// cells decide) and Placements under minScore 0 and above. σ comes from
// diffTable — negative, ±0 and fractional cells in both species orders —
// quantized with the automatic unit or an arbitrary IntWithUnit unit, and
// is run as is and transposed on words with reversed symbols.
func TestQuantizedKernelsMatchIntReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	s := NewScratch()
	defer s.Release()
	const n = 12
	cases := 0
	for trial := 0; trial < 600; trial++ {
		tb := diffTable(r, n, 5+r.Intn(120), trial%4 == 0)
		c := score.Compile(tb, n)
		ci := c.Int()
		if trial%3 != 0 {
			ci = c.IntWithUnit(math.Pow(10, -3+3.5*r.Float64()))
		}
		w := 1 + r.Intn(2)
		la := 1 + r.Intn(12)
		lb := la * (2*w + 1) // adjacent bands at half-width w
		if trial%2 == 0 {
			la, lb = 1+r.Intn(40), 1+r.Intn(40)
		}
		a := randOrientedWord(r, la, n)
		b := randOrientedWord(r, lb, n)
		if !ci.Fits(min(la, lb)) {
			t.Fatalf("trial %d: test premise: unit %v must fit %d-cell alignments", trial, ci.Unit(), min(la, lb))
		}
		for _, o := range []struct {
			name string
			x, y symbol.Word
			ci   *score.CompiledInt
		}{{"σ", a, b, ci}, {"σᵀ", b, a, ci.Transposed()}} {
			cases++
			ref := intRef{src: o.ci.Source(), unit: o.ci.Unit()}
			x, y := o.x, o.y
			want, wantCols := ref.align(x, y)
			fail := func(kernel string, got, want any) {
				t.Helper()
				t.Fatalf("trial %d %s unit %v: %s = %v, want %v\nx=%v y=%v", trial, o.name, o.ci.Unit(), kernel, got, want, x, y)
			}
			if got := s.Score(x, y, o.ci); !sameBitsF(got, want) {
				fail("Score", got, want)
			}
			got, cols := s.Align(x, y, o.ci)
			if !sameBitsF(got, want) || !slices.Equal(cols, wantCols) {
				fail("Align", []any{got, cols}, []any{want, wantCols})
			}
			for _, band := range []int{w, 1 + r.Intn(8), la + lb} {
				if got, want := s.ScoreBanded(x, y, o.ci, band), ref.banded(x, y, band); !sameBitsF(got, want) {
					fail("ScoreBanded", got, want)
				}
			}
			for _, minScore := range []float64{0, want * r.Float64(), 0.75 * want} {
				if got, want := s.Placements(x, y, o.ci, minScore), ref.placements(x, y, minScore); !slices.Equal(got, want) {
					fail("Placements", got, want)
				}
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d cases", cases)
	}
}
