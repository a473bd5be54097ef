package score

import (
	"math/rand"
	"testing"

	"repro/internal/symbol"
)

// orientedUniverse lists every oriented symbol with region ID ≤ n, plus the
// pad.
func orientedUniverse(n int32) []symbol.Symbol {
	var out []symbol.Symbol
	for id := -n; id <= n; id++ {
		out = append(out, symbol.Symbol(id))
	}
	return out
}

// randomTable builds a table over n regions with random entries in random
// orientations, including some negative scores.
func randomTable(r *rand.Rand, n int32, entries int) *Table {
	tb := NewTable()
	for i := 0; i < entries; i++ {
		a := symbol.Symbol(1 + r.Int31n(n))
		b := symbol.Symbol(1 + r.Int31n(n))
		if r.Intn(2) == 0 {
			a = a.Rev()
		}
		if r.Intn(2) == 0 {
			b = b.Rev()
		}
		tb.Set(a, b, float64(r.Intn(21)-5))
	}
	return tb
}

// TestCompiledAgreesWithTable is the compiled-scorer property test: on a
// randomized alphabet the dense matrix must agree with the wrapped sparse
// table on every oriented symbol pair, obey the pad-zero law, and inherit
// reversal symmetry.
func TestCompiledAgreesWithTable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Int31n(20)
		tb := randomTable(r, n, 1+r.Intn(60))
		c := Compile(tb, n)
		univ := orientedUniverse(n)
		for _, a := range univ {
			for _, b := range univ {
				if got, want := c.Score(a, b), tb.Score(a, b); got != want {
					t.Fatalf("trial %d: compiled σ(%d,%d) = %v, table %v", trial, a, b, got, want)
				}
			}
			if c.Score(a, symbol.Pad) != 0 || c.Score(symbol.Pad, a) != 0 {
				t.Fatalf("trial %d: pad law violated at %d", trial, a)
			}
		}
		if a, b, ok := Verify(c, univ); !ok {
			t.Fatalf("trial %d: compiled scorer violates laws at (%d, %d)", trial, a, b)
		}
		// Cells/Index agreement with Score: the listed cells are exactly
		// the nonzero ones, in ascending column order.
		for _, a := range univ {
			cols, vals := c.Cells(a)
			k := 0
			for _, b := range univ {
				want := c.Score(a, b)
				if k < len(cols) && cols[k] == c.Index(b) {
					if vals[k] != want || want == 0 {
						t.Fatalf("trial %d: Cells(%d) lists %d as %v, Score %v", trial, a, b, vals[k], want)
					}
					k++
				} else if want != 0 {
					t.Fatalf("trial %d: Cells(%d) misses nonzero column %d", trial, a, b)
				}
			}
			if k != len(cols) {
				t.Fatalf("trial %d: Cells(%d) has out-of-order columns %v", trial, a, cols)
			}
		}
	}
}

// TestCompiledAgreesWithIdentity covers the Identity (UCSR) fast-compile
// path.
func TestCompiledAgreesWithIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Int31n(15)
		id := NewIdentity(float64(r.Intn(5)))
		for k := int32(1); k <= n; k++ {
			if r.Intn(2) == 0 {
				id.SetWeight(symbol.Symbol(k), float64(r.Intn(9)))
			}
		}
		c := Compile(id, n)
		univ := orientedUniverse(n)
		for _, a := range univ {
			for _, b := range univ {
				if c.Score(a, b) != id.Score(a, b) {
					t.Fatalf("trial %d: compiled identity σ(%d,%d) = %v, want %v",
						trial, a, b, c.Score(a, b), id.Score(a, b))
				}
			}
		}
	}
}

// TestCompiledAgreesWithQuantized covers the Quantized fast-compile path:
// the dense matrix must floor exactly as the wrapper does per call.
func TestCompiledAgreesWithQuantized(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Int31n(15)
		q := Quantized{Base: randomTable(r, n, 40), Unit: r.Float64() * 3}
		if trial%5 == 0 {
			q.Unit = 0 // pass-through case
		}
		c := Compile(q, n)
		for _, a := range orientedUniverse(n) {
			for _, b := range orientedUniverse(n) {
				if c.Score(a, b) != q.Score(a, b) {
					t.Fatalf("trial %d: compiled quantized σ(%d,%d) = %v, want %v",
						trial, a, b, c.Score(a, b), q.Score(a, b))
				}
			}
		}
	}
}

// TestCompiledOutOfRangeFallsBack checks symbols beyond the compiled range
// still score through the base scorer.
func TestCompiledOutOfRangeFallsBack(t *testing.T) {
	tb := NewTable()
	tb.Set(symbol.Symbol(2), symbol.Symbol(9), 7)
	c := Compile(tb, 4) // 9 is out of range
	if got := c.Score(symbol.Symbol(2), symbol.Symbol(9)); got != 7 {
		t.Fatalf("out-of-range fallback = %v, want 7", got)
	}
	if got := c.Score(symbol.Symbol(2).Rev(), symbol.Symbol(9).Rev()); got != 7 {
		t.Fatalf("out-of-range reversed fallback = %v, want 7", got)
	}
}

// TestCompiledTransposed checks σᵀ(a, b) = σ(b, a) cell for cell, and that
// transposing a transpose restores the original scorer.
func TestCompiledTransposed(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := int32(12)
	tb := randomTable(r, n, 40)
	c := Compile(tb, n)
	ct := c.Transposed()
	univ := orientedUniverse(n)
	for _, a := range univ {
		for _, b := range univ {
			if ct.Score(a, b) != c.Score(b, a) {
				t.Fatalf("σᵀ(%d,%d) = %v, want σ(%d,%d) = %v", a, b, ct.Score(a, b), b, a, c.Score(b, a))
			}
		}
	}
	if back := Transpose(Transpose(Scorer(tb))); back != Scorer(tb) {
		t.Fatal("double transpose did not restore the original scorer")
	}
}

// TestCompileIdempotent checks compiling a covering Compiled is a no-op.
func TestCompileIdempotent(t *testing.T) {
	tb := NewTable()
	tb.Set(symbol.Symbol(1), symbol.Symbol(2), 3)
	c := Compile(tb, 8)
	if Compile(c, 5) != c {
		t.Fatal("re-compiling a covering matrix should return it unchanged")
	}
	if Compile(c, 9) == c {
		t.Fatal("compiling past the covered range must build a wider matrix")
	}
}

// BenchmarkScorerDispatch compares per-pair lookup cost: the sparse map
// table (hash + canonicalization per call) versus the compiled matrix (a
// search of one short sparse row).
func BenchmarkScorerDispatch(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	const n = 40
	tb := randomTable(r, n, 200)
	c := Compile(tb, n)
	pairs := make([][2]symbol.Symbol, 1024)
	for i := range pairs {
		a := symbol.Symbol(r.Int31n(2*n+1) - n)
		bb := symbol.Symbol(r.Int31n(2*n+1) - n)
		pairs[i] = [2]symbol.Symbol{a, bb}
	}
	b.Run("table", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			p := pairs[i&1023]
			sink += tb.Score(p[0], p[1])
		}
		_ = sink
	})
	b.Run("compiled", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			p := pairs[i&1023]
			sink += c.Score(p[0], p[1])
		}
		_ = sink
	})
}
