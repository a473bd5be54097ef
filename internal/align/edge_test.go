package align

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/symbol"
)

// ColsScore sums the σ contributions of an alignment's scoring columns.
func ColsScore(cols []Col) float64 {
	t := 0.0
	for _, c := range cols {
		t += c.Sigma
	}
	return t
}

// ValidCols reports whether cols is a strictly increasing monotone pairing
// of positions within words of the given lengths.
func ValidCols(cols []Col, la, lb int) bool {
	pi, pj := -1, -1
	for _, c := range cols {
		if c.I <= pi || c.J <= pj || c.I >= la || c.J >= lb || c.I < 0 || c.J < 0 {
			return false
		}
		pi, pj = c.I, c.J
	}
	return true
}

func TestValidColsRejects(t *testing.T) {
	cases := []struct {
		cols []Col
		la   int
		lb   int
		ok   bool
	}{
		{nil, 0, 0, true},
		{[]Col{{I: 0, J: 0}}, 1, 1, true},
		{[]Col{{I: 0, J: 0}, {I: 0, J: 1}}, 2, 2, false}, // I not increasing
		{[]Col{{I: 0, J: 1}, {I: 1, J: 0}}, 2, 2, false}, // J decreasing
		{[]Col{{I: 2, J: 0}}, 2, 1, false},               // I out of range
		{[]Col{{I: -1, J: 0}}, 2, 1, false},
	}
	for _, c := range cases {
		if got := ValidCols(c.cols, c.la, c.lb); got != c.ok {
			t.Errorf("ValidCols(%v,%d,%d) = %v", c.cols, c.la, c.lb, got)
		}
	}
}

// TestExtremeShapes runs Score and Align on a one-symbol word against a
// 500-symbol word, in both argument orders, on a table σ and its quantized
// form.
func TestExtremeShapes(t *testing.T) {
	tb := score.NewTable()
	tb.Set(1, 2, 3)
	long := make(symbol.Word, 500)
	for i := range long {
		long[i] = 2
	}
	single := symbol.Word{1}
	for _, sc := range []score.Scorer{tb, score.Compile(tb, 2).Int()} {
		if got := Score(single, long, sc); got != 3 {
			t.Fatalf("1×n Score: %v", got)
		}
		got, cols := Align(single, long, sc)
		if got != 3 || len(cols) != 1 || cols[0].Sigma != 3 || !ValidCols(cols, 1, len(long)) {
			t.Fatalf("1×n Align: %v %v", got, cols)
		}
		if got := Score(long, single, sc); got != 0 {
			t.Fatalf("n×1 Score: %v (no entry for (2,1))", got)
		}
		if got, cols := Align(long, single, sc); got != 0 || len(cols) != 0 {
			t.Fatalf("n×1 Align: %v %v", got, cols)
		}
	}
}

func TestScoreExtensionMonotonicity(t *testing.T) {
	// Appending regions to either word never lowers the score (free pads).
	r := rand.New(rand.NewSource(131))
	for trial := 0; trial < 80; trial++ {
		tb := randTable(r, 4, 0.5)
		a := randOrientedWord(r, 1+r.Intn(8), 4)
		b := randOrientedWord(r, 1+r.Intn(8), 4)
		base := Score(a, b, tb)
		extra := randOrientedWord(r, 1+r.Intn(3), 4)
		if got := Score(symbol.Concat(a, extra), b, tb); got < base {
			t.Fatalf("extending a lowered score: %v < %v", got, base)
		}
		if got := Score(a, symbol.Concat(extra, b), tb); got < base {
			t.Fatalf("prepending to b lowered score: %v < %v", got, base)
		}
	}
}

// TestAlignLongAsymmetric aligns a 300-symbol word against a 40-symbol one,
// in both argument orders, on a table σ and on a quantized σ whose unit
// does not divide its cells: the score equals Score, the columns are a
// valid pairing, and their σ sums to the score (in whole units on the
// quantized σ).
func TestAlignLongAsymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	tb := randTable(r, 6, 0.3)
	ci := score.Compile(tb, 6).IntWithUnit(0.7)
	long := randOrientedWord(r, 300, 6)
	short := randOrientedWord(r, 40, 6)
	for _, o := range []struct {
		name string
		a, b symbol.Word
	}{{"300×40", long, short}, {"40×300", short, long}} {
		got, cols := Align(o.a, o.b, tb)
		if want := Score(o.a, o.b, tb); got != want || want == 0 {
			t.Fatalf("%s: Align %v, Score %v", o.name, got, want)
		}
		if !ValidCols(cols, len(o.a), len(o.b)) || ColsScore(cols) != got {
			t.Fatalf("%s: columns %v do not sum to %v", o.name, cols, got)
		}
		got, cols = Align(o.a, o.b, ci)
		if want := Score(o.a, o.b, ci); got != want || want == 0 {
			t.Fatalf("%s quantized: Align %v, Score %v", o.name, got, want)
		}
		units := 0.0
		for _, c := range cols {
			units += math.Round(c.Sigma / ci.Unit())
		}
		if !ValidCols(cols, len(o.a), len(o.b)) || units*ci.Unit() != got {
			t.Fatalf("%s quantized: columns %v do not sum to %v", o.name, cols, got)
		}
	}
}

func TestPlacementsMinScoreFilter(t *testing.T) {
	tb := score.NewTable()
	tb.Set(1, 5, 2)
	tb.Set(2, 6, 3)
	a := symbol.Word{1, 2}
	b := symbol.Word{5, 6}
	all := Placements(a, b, tb, 0)
	if len(all) != 2 {
		t.Fatalf("placements = %v", all)
	}
	high := Placements(a, b, tb, 4)
	if len(high) != 1 || high[0].Score != 5 {
		t.Fatalf("filtered placements = %v", high)
	}
}
