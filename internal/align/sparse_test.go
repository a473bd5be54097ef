package align

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/score"
	"repro/internal/symbol"
)

// diffTable builds a random table over n regions with negative, ±0 and
// (unless integral) fractional entries, set in both species orders and both
// orientations. Integral tables make equal-score ties common.
func diffTable(r *rand.Rand, n int32, entries int, integral bool) *score.Table {
	tb := score.NewTable()
	sym := func() symbol.Symbol {
		s := symbol.Symbol(1 + r.Int31n(n))
		if r.Intn(2) == 0 {
			s = s.Rev()
		}
		return s
	}
	val := func() float64 {
		v := float64(r.Intn(15) - 5)
		if !integral && r.Intn(2) == 0 {
			v += r.Float64()
		}
		return v
	}
	for i := 0; i < entries; i++ {
		a, b := sym(), sym()
		switch r.Intn(6) {
		case 0:
			tb.Set(a, b, math.Copysign(0, -1))
		case 1:
			tb.Set(a, b, 0)
		case 2: // both species orders, distinct values
			tb.Set(a, b, val())
			tb.Set(b, a, val())
		default:
			tb.Set(a, b, val())
		}
	}
	return tb
}

// nonNegative returns tb with every negative entry dropped.
func nonNegative(tb *score.Table) *score.Table {
	out := score.NewTable()
	tb.Pairs(func(a, b symbol.Symbol, v float64) {
		if v > 0 {
			out.Set(a, b, v)
		}
	})
	return out
}

// kernelRun is every float64 kernel's output on one word pair.
type kernelRun struct {
	score, banded, alignScore  float64
	bandedAdjacent, bandedWide float64
	alignCols                  []Col
	placements                 []Placement
}

// runKernels runs the kernels on (a, b) under sc. bandAdj is a band
// half-width for which consecutive rows' bands touch only diagonally.
func runKernels(s *Scratch, a, b symbol.Word, sc score.Scorer, bandAdj int) kernelRun {
	var k kernelRun
	k.score = s.Score(a, b, sc)
	k.banded = s.ScoreBanded(a, b, sc, 2)
	k.bandedAdjacent = s.ScoreBanded(a, b, sc, bandAdj)
	k.bandedWide = s.ScoreBanded(a, b, sc, len(a)+len(b))
	// Align's columns and the placements live in s until its next call:
	// keep copies, so that comparing two runs on one scratch compares two
	// results rather than one buffer with itself.
	var cols []Col
	k.alignScore, cols = s.Align(a, b, sc)
	k.alignCols = slices.Clone(cols)
	k.placements = slices.Clone(s.Placements(a, b, sc, 0.5))
	return k
}

func sameRun(x, y kernelRun) bool {
	return x.score == y.score && x.banded == y.banded &&
		x.bandedAdjacent == y.bandedAdjacent && x.bandedWide == y.bandedWide &&
		x.alignScore == y.alignScore && slices.Equal(x.alignCols, y.alignCols) &&
		slices.Equal(x.placements, y.placements)
}

// TestSparseKernelsMatchInterface is the differential test of the sparse
// float64 kernels: on random tables with negative, ±0 and fractional
// entries, every kernel run on the compiled matrix (and on its transpose,
// for the other species order) equals the interface path over the raw
// scorer exactly — Score, ScoreBanded, Align (score and columns) and
// Placements. Word sizes cover both table builds (short words scan b,
// long ones index it), and the banded runs include bands that touch only
// diagonally, where a cell's one finite input is its diagonal and a
// negative σ decides it. PlacementsEach runs several queries against each
// zone, under minScore 0 and above, and must equal per-call Placements and
// the interface path query by query.
func TestSparseKernelsMatchInterface(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	s := NewScratch()
	defer s.Release()
	const n = 12
	dim := 2*n + 1
	negativeDecided, noHits := 0, 0
	for trial := 0; trial < 300; trial++ {
		tb := diffTable(r, n, 5+r.Intn(120), trial%2 == 1)
		c := score.Compile(tb, n)
		// Band half-width w with row step 2w+1: row i's band starts right
		// after row i−1's ends.
		w := 1 + r.Intn(2)
		la := 1 + r.Intn(12)
		lb := la * (2*w + 1)
		if trial%3 == 0 {
			la, lb = 1+r.Intn(4), 1+r.Intn(8)
		}
		a := randOrientedWord(r, la, n)
		b := randOrientedWord(r, lb, n)
		if la*lb >= 4*dim*dim {
			t.Fatalf("words too long: the reference would compile σ")
		}
		orders := []struct {
			name     string
			x, y     symbol.Word
			fast, sc score.Scorer
		}{
			{"σ", a, b, c, tb},
			{"σᵀ", b, a, c.Transposed(), score.Transpose(tb)},
		}
		minScore := []float64{0, 0.5, 3}[trial%3]
		for _, o := range orders {
			got := runKernels(s, o.x, o.y, o.fast, w)
			want := runKernels(s, o.x, o.y, o.sc, w)
			if !sameRun(got, want) {
				t.Fatalf("trial %d %s: sparse kernels\n%+v\nwant interface path\n%+v\na=%v b=%v",
					trial, o.name, got, want, o.x, o.y)
			}
			// Several queries against the one zone o.y: a long one (a
			// floatTable) after short ones, an empty query, one holding a
			// symbol above the matrix's MaxID (the interface path, per
			// query) and one that hits nothing in the zone.
			noHit := noHitWord(o.y, o.fast, n)
			if len(noHit) > 0 {
				noHits++
			}
			queries := []symbol.Word{
				o.x, randOrientedWord(r, 1+r.Intn(4), n), randOrientedWord(r, shortWord+1+r.Intn(4), n),
				nil, append(slices.Clone(o.x), symbol.Symbol(n+1)), noHit, o.x.Rev(),
			}
			checkZone(t, s, o.y, queries, o.fast, o.sc, minScore)
		}
		if trial%10 == 0 {
			// A raw table over a long zone is compiled per query, as wide
			// as the query's symbols need: the zone's index must follow the
			// matrix when a query needs a wider one.
			raw := diffTable(r, n, 60, false)
			zone := randOrientedWord(r, 70, n/2)
			queries := []symbol.Word{randOrientedWord(r, 50, n/2), randOrientedWord(r, 50, n), randOrientedWord(r, 50, n/2)}
			checkZone(t, s, zone, queries, raw, score.Compile(raw.Clone(), n), minScore) // a clone keeps raw's compile cache cold
		}
		if ScoreBanded(a, b, nonNegative(tb), w) != ScoreBanded(a, b, tb, w) {
			negativeDecided++
		}
	}
	// The adjacent-band case must really hinge on negative cells somewhere.
	if negativeDecided == 0 {
		t.Fatal("no trial had a banded score decided by a negative σ")
	}
	if noHits == 0 {
		t.Fatal("no zone had a symbol that scores positively against none of it")
	}
}

// checkZone holds PlacementsEach over one zone to per-call Placements
// under fast and to Placements under the reference scorer ref, exactly,
// query by query.
func checkZone(t *testing.T, s *Scratch, zone symbol.Word, queries []symbol.Word, fast, ref score.Scorer, minScore float64) {
	t.Helper()
	var got [][]Placement
	s.PlacementsEach(zone, queries, fast, minScore, func(q int, ps []Placement) {
		if q != len(got) {
			t.Fatalf("emit for query %d, want %d", q, len(got))
		}
		got = append(got, slices.Clone(ps))
	})
	if len(got) != len(queries) {
		t.Fatalf("%d emits for %d queries", len(got), len(queries))
	}
	for q, a := range queries {
		one := slices.Clone(s.Placements(a, zone, fast, minScore))
		want := s.Placements(a, zone, ref, minScore)
		if !slices.Equal(got[q], want) || !slices.Equal(one, want) {
			t.Fatalf("query %d (minScore %v): PlacementsEach %v, Placements %v, want reference %v\na=%v zone=%v",
				q, minScore, got[q], one, want, a, zone)
		}
	}
}

// noHitWord returns the symbols of alphabet 1..n, in both orientations,
// that score positively under sc against no symbol of zone.
func noHitWord(zone symbol.Word, sc score.Scorer, n int) symbol.Word {
	var w symbol.Word
	for id := 1; id <= n; id++ {
		for _, x := range []symbol.Symbol{symbol.Symbol(id), symbol.Symbol(id).Rev()} {
			if !slices.ContainsFunc(zone, func(y symbol.Symbol) bool { return sc.Score(x, y) > 0 }) {
				w = append(w, x)
			}
		}
	}
	return w
}
