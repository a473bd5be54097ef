package align

import (
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/symbol"
)

// TestScoreZeroAlloc asserts the steady-state guarantee: with a prepared σ
// matrix (float64 or quantized) every Score call runs entirely out of
// the pooled scratch arena — zero heap allocations per call on both the
// package-level and the per-Scratch form — and so do the Scratch forms of
// Align and Placements, whose results live in the arena.
func TestScoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching on purpose")
	}
	r := rand.New(rand.NewSource(30))
	tb := randIntTable(r, 20, 60, true)
	c := score.Compile(tb, 20)
	ci := c.Int()
	a := randIntWord(r, 20, 300)
	b := randIntWord(r, 20, 300)

	cases := []struct {
		name string
		fn   func()
	}{
		{"pooled-float", func() { Score(a, b, c) }},
		{"pooled-int", func() { Score(a, b, ci) }},
		{"pooled-banded", func() { ScoreBanded(a, b, c, 16) }},
		{"pooled-banded-int", func() { ScoreBanded(a, b, ci, 16) }},
	}
	s := NewScratch()
	defer s.Release()
	cases = append(cases,
		struct {
			name string
			fn   func()
		}{"scratch-float", func() { s.Score(a, b, c) }},
		struct {
			name string
			fn   func()
		}{"scratch-int", func() { s.Score(a, b, ci) }},
		struct {
			name string
			fn   func()
		}{"scratch-align", func() { s.Align(a, b, c) }},
		struct {
			name string
			fn   func()
		}{"scratch-placements", func() { s.Placements(a[:40], b, c, 0) }},
	)
	for _, tc := range cases {
		tc.fn() // warm the pool and grow the buffers
		if avg := testing.AllocsPerRun(50, tc.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
		}
	}
}

var benchSink float64

// BenchmarkScoreIntVsFloat compares Score on the float64 matrix and on its
// quantized form, on the same inputs as BenchmarkAlignmentKernels.
func BenchmarkScoreIntVsFloat(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	tb := score.NewTable()
	for i := 1; i <= 30; i++ {
		tb.Set(symbol.Symbol(i), symbol.Symbol(i%30+1), float64(1+i%5))
	}
	mk := func(n int) symbol.Word {
		w := make(symbol.Word, n)
		for i := range w {
			w[i] = symbol.Symbol(1 + r.Intn(30))
		}
		return w
	}
	a, bb := mk(500), mk(500)
	c := score.Compile(tb, 30)
	ci := c.Int()
	b.Run("float64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = Score(a, bb, c)
		}
	})
	b.Run("int32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = Score(a, bb, ci)
		}
	})
}

// BenchmarkSparseRowBuild isolates the per-call sparse-row table build that
// fronts the skip-propagation kernels: long words over a large alphabet with
// few positive cells per row, where the build (not the DP sweep) dominates.
// The float64 and quantized variants share the PosRow × inverse-column-index
// construction; this row is the before/after gauge for that build.
func BenchmarkSparseRowBuild(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	const dim = 2000
	tb := score.NewTable()
	for i := 1; i <= dim; i++ {
		// ~4 positive partners per symbol.
		for k := 0; k < 4; k++ {
			tb.Set(symbol.Symbol(i), symbol.Symbol(1+r.Intn(dim)), float64(1+r.Intn(5)))
		}
	}
	mk := func(n int) symbol.Word {
		w := make(symbol.Word, n)
		for i := range w {
			w[i] = symbol.Symbol(1 + r.Intn(dim))
		}
		return w
	}
	a, bb := mk(1200), mk(1200)
	c := score.Compile(tb, dim)
	ci := c.Int()
	b.Run("float64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = Score(a, bb, c)
		}
	})
	b.Run("int32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = Score(a, bb, ci)
		}
	})
}
