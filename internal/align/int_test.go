package align

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/score"
	"repro/internal/symbol"
)

func randIntTable(r *rand.Rand, ids int, pairs int, integral bool) *score.Table {
	tb := score.NewTable()
	for k := 0; k < pairs; k++ {
		a := symbol.Symbol(1 + r.Intn(ids))
		b := symbol.Symbol(1 + r.Intn(ids))
		if r.Intn(2) == 0 {
			b = b.Rev()
		}
		if integral {
			tb.Set(a, b, float64(1+r.Intn(12)))
		} else {
			tb.Set(a, b, r.Float64()*12)
		}
	}
	return tb
}

func randIntWord(r *rand.Rand, ids, n int) symbol.Word {
	w := make(symbol.Word, n)
	for i := range w {
		w[i] = symbol.Symbol(1 + r.Intn(ids))
		if r.Intn(8) == 0 {
			w[i] = w[i].Rev()
		}
	}
	return w
}

// TestIntKernelsExactOnIntegralSigma: with an integer-valued σ the quantized
// kernels must agree with the float64 kernels bit for bit, on every kernel.
func TestIntKernelsExactOnIntegralSigma(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 50; trial++ {
		ids := 3 + r.Intn(12)
		tb := randIntTable(r, ids, 5+r.Intn(40), true)
		c := score.Compile(tb, int32(ids))
		ci := c.Int()
		if !ci.Exact() {
			t.Fatal("integral σ must quantize exactly")
		}
		a := randIntWord(r, ids, 1+r.Intn(60))
		b := randIntWord(r, ids, 1+r.Intn(60))
		if got, want := Score(a, b, ci), Score(a, b, c); got != want {
			t.Fatalf("trial %d: Score int %v != float %v", trial, got, want)
		}
		band := 1 + r.Intn(20)
		if got, want := ScoreBanded(a, b, ci, band), ScoreBanded(a, b, c, band); got != want {
			t.Fatalf("trial %d: ScoreBanded int %v != float %v", trial, got, want)
		}
		gi, ci2 := Hirschberg(a, b, ci)
		gf, _ := Hirschberg(a, b, c)
		if gi != gf {
			t.Fatalf("trial %d: Hirschberg int %v != float %v", trial, gi, gf)
		}
		if !ValidCols(ci2, len(a), len(b)) {
			t.Fatalf("trial %d: invalid int Hirschberg columns", trial)
		}
		si, colsI := Align(a, b, ci)
		sf, _ := Align(a, b, c)
		if si != sf || ColsScore(colsI) != sf {
			t.Fatalf("trial %d: Align int (%v, cols %v) != float %v", trial, si, ColsScore(colsI), sf)
		}
		pi := Placements(a, b, ci, 0)
		pf := Placements(a, b, c, 0)
		if len(pi) != len(pf) {
			t.Fatalf("trial %d: %d int placements != %d float", trial, len(pi), len(pf))
		}
		for i := range pi {
			if pi[i] != pf[i] {
				t.Fatalf("trial %d: placement %d: %+v != %+v", trial, i, pi[i], pf[i])
			}
		}
		wf := WavefrontAligner{Workers: 1 + r.Intn(3), BlockRows: 1 + r.Intn(30), BlockCols: 1 + r.Intn(30)}
		if got, want := wf.Score(a, b, ci), Score(a, b, ci); got != want {
			t.Fatalf("trial %d: wavefront int %v != serial int %v", trial, got, want)
		}
	}
}

// TestIntScoreBound: for arbitrary float σ, the dequantized integer score is
// within the proven quantization bound of the exact float score:
// |int − float| ≤ cellErr · min(|a|, |b|).
func TestIntScoreBound(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		ids := 3 + r.Intn(10)
		tb := randIntTable(r, ids, 5+r.Intn(30), false)
		c := score.Compile(tb, int32(ids))
		ci := c.Int()
		a := randIntWord(r, ids, 1+r.Intn(80))
		b := randIntWord(r, ids, 1+r.Intn(80))
		want := Score(a, b, c)
		got := Score(a, b, ci)
		bound := ci.Bound(min(len(a), len(b)))
		slack := 1e-9 * (1 + math.Abs(want))
		if d := math.Abs(got - want); d > bound+slack {
			t.Fatalf("trial %d: |%v − %v| = %v > bound %v (unit %v, %d×%d)",
				trial, got, want, d, bound, ci.Unit(), len(a), len(b))
		}
	}
}

// TestIntOverflowFallback: a quantization whose headroom cannot cover the
// word lengths must fall back to the exact float64 matrix — scores then match
// the float path exactly at any size.
func TestIntOverflowFallback(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tb := randIntTable(r, 8, 30, false)
	c := score.Compile(tb, 8)
	ci := c.IntWithUnit(1e-12) // clamps to |q| ≤ 2^30: nothing fits alongside even 2 cells
	if ci.Fits(2) {
		t.Fatal("test premise: headroom must fail")
	}
	a := randIntWord(r, 8, 40)
	b := randIntWord(r, 8, 40)
	if got, want := Score(a, b, ci), Score(a, b, c); got != want {
		t.Fatalf("fallback Score %v != float %v", got, want)
	}
	if got, want := ScoreBanded(a, b, ci, 5), ScoreBanded(a, b, c, 5); got != want {
		t.Fatalf("fallback ScoreBanded %v != float %v", got, want)
	}
	// A headroom that holds for short queries only: one PlacementsEach
	// zone serves int32 and float64 queries in turn, each as per-call
	// Placements would run it.
	var mixed *score.CompiledInt
	for unit := 1e-9; mixed == nil; unit *= 2 {
		if m := c.IntWithUnit(unit); m.Fits(2) && !m.Fits(len(b)) {
			mixed = m
		}
	}
	queries := []symbol.Word{a[:2], a, b[:2], b}
	s := NewScratch()
	defer s.Release()
	s.PlacementsEach(b, queries, mixed, 0, func(q int, ps []Placement) {
		if want := Placements(queries[q], b, mixed, 0); !slices.Equal(ps, want) {
			t.Fatalf("query %d: PlacementsEach %v != Placements %v", q, ps, want)
		}
	})
}

// TestIntOutOfRangeSymbols: symbols beyond the compiled range push the
// kernels onto the interface path, which scores dequantized cells for
// in-range pairs and exact base values beyond — deterministically.
func TestIntOutOfRangeSymbols(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tb := randIntTable(r, 12, 40, true)
	c := score.Compile(tb, 6) // covers only half the IDs
	ci := c.Int()
	a := randIntWord(r, 12, 20)
	b := randIntWord(r, 12, 20)
	if got, want := Score(a, b, ci), Score(a, b, score.Scorer(ci)); got != want {
		t.Fatalf("out-of-range int path diverged: %v != %v", got, want)
	}
}

// FuzzIntScoreBound drives the quantization-bound property from fuzzed word
// and σ shapes.
func FuzzIntScoreBound(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(10), uint8(12), false)
	f.Add(int64(7), uint8(8), uint8(33), uint8(50), true)
	f.Add(int64(99), uint8(2), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, ids, la, lb uint8, integral bool) {
		if ids == 0 {
			ids = 1
		}
		r := rand.New(rand.NewSource(seed))
		tb := randIntTable(r, int(ids), 3+r.Intn(50), integral)
		c := score.Compile(tb, int32(ids))
		ci := c.Int()
		a := randIntWord(r, int(ids), int(la))
		b := randIntWord(r, int(ids), int(lb))
		want := Score(a, b, c)
		got := Score(a, b, ci)
		bound := ci.Bound(min(len(a), len(b)))
		if d := math.Abs(got - want); d > bound+1e-9*(1+math.Abs(want)) {
			t.Fatalf("|%v − %v| = %v > bound %v", got, want, d, bound)
		}
		if integral && got != want {
			t.Fatalf("integral σ must score exactly: %v != %v", got, want)
		}
	})
}

// TestPlacementsThresholdSound holds Placements on the quantized σ to the
// float64 matrix across random thresholds, on integral σ where the two must
// agree exactly.
func TestPlacementsThresholdSound(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		ids := 3 + r.Intn(10)
		tb := randIntTable(r, ids, 5+r.Intn(40), true)
		c := score.Compile(tb, int32(ids))
		ci := c.Int()
		a := randIntWord(r, ids, 1+r.Intn(60))
		b := randIntWord(r, ids, 1+r.Intn(60))
		th := float64(r.Intn(30) - 2)
		pf := Placements(a, b, c, th)
		pi := Placements(a, b, ci, th)
		if !slices.Equal(pi, pf) {
			t.Fatalf("trial %d th=%v: int placements %v != float %v", trial, th, pi, pf)
		}
	}
}
