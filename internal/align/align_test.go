package align

import (
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/symbol"
)

// bruteScore enumerates every monotone pairing recursively — exponential,
// for cross-checking on tiny inputs only.
func bruteScore(a, b symbol.Word, sc score.Scorer) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	best := bruteScore(a[1:], b, sc)
	if v := bruteScore(a, b[1:], sc); v > best {
		best = v
	}
	if v := sc.Score(a[0], b[0]) + bruteScore(a[1:], b[1:], sc); v > best {
		best = v
	}
	return best
}

func randTable(r *rand.Rand, alpha int, density float64) *score.Table {
	tb := score.NewTable()
	for i := 1; i <= alpha; i++ {
		for j := 1; j <= alpha; j++ {
			if r.Float64() < density {
				x, y := symbol.Symbol(i), symbol.Symbol(j)
				if r.Intn(2) == 0 {
					y = y.Rev()
				}
				tb.Set(x, y, float64(1+r.Intn(9)))
			}
		}
	}
	return tb
}

func randOrientedWord(r *rand.Rand, n, alpha int) symbol.Word {
	w := make(symbol.Word, n)
	for i := range w {
		s := symbol.Symbol(r.Intn(alpha) + 1)
		if r.Intn(2) == 0 {
			s = s.Rev()
		}
		w[i] = s
	}
	return w
}

func TestScoreMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		tb := randTable(r, 4, 0.5)
		a := randOrientedWord(r, r.Intn(7), 4)
		b := randOrientedWord(r, r.Intn(7), 4)
		want := bruteScore(a, b, tb)
		if got := Score(a, b, tb); got != want {
			t.Fatalf("Score(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestScoreSkipSweepMatchesDense pins the skip-propagation sweep (the
// sparse positive-cell fast path of scoreCompiled) against the plain dense
// loop of the interface path: the
// skipped writes must be no-ops, bit for bit, across densities — including
// all-negative rows (no adds at all), near-empty tables, and dense ones —
// on both table builds (short words scan b, long ones index it).
func TestScoreSkipSweepMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := NewScratch()
	defer s.Release()
	for trial := 0; trial < 200; trial++ {
		alpha := 3 + r.Intn(6)
		density := []float64{0, 0.02, 0.1, 0.5, 0.9}[trial%5]
		tb := randTable(r, alpha, density)
		// Sprinkle negative entries: they must behave exactly like absent
		// ones in the sparse sweep (only positive columns carry adds).
		for i := 1; i <= alpha; i++ {
			if r.Intn(3) == 0 {
				tb.Set(symbol.Symbol(i), symbol.Symbol(r.Intn(alpha)+1), -float64(1+r.Intn(5)))
			}
		}
		// Long words clear the small-word threshold (indexed table build);
		// every other trial uses short words (scanned build).
		la, lb := 20+r.Intn(40), 20+r.Intn(40)
		if trial%2 == 1 {
			la, lb = 1+r.Intn(4), 1+r.Intn(8)
		}
		a := randOrientedWord(r, la, alpha)
		b := randOrientedWord(r, lb, alpha)
		c := score.Compile(tb, int32(alpha))
		got := s.scoreCompiled(a, b, c)
		// The interface path is the independent reference implementation.
		n := len(b)
		prev := make([]float64, n+1)
		cur := make([]float64, n+1)
		for i := 1; i <= len(a); i++ {
			for j := 1; j <= n; j++ {
				best := prev[j-1] + tb.Score(a[i-1], b[j-1])
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
		if got != prev[n] {
			t.Fatalf("trial %d: skip sweep %v != reference %v", trial, got, prev[n])
		}
	}
}

func TestScoreEmpty(t *testing.T) {
	tb := score.NewTable()
	if Score(nil, symbol.Word{1}, tb) != 0 || Score(symbol.Word{1}, nil, tb) != 0 {
		t.Fatal("empty word should score 0")
	}
}

func TestScoreJointReversalInvariance(t *testing.T) {
	// P_score(a,b) = P_score(aᴿ,bᴿ): reversing both words and orientations
	// preserves the score because σ(aᴿ,bᴿ) = σ(a,b).
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		tb := randTable(r, 5, 0.4)
		a := randOrientedWord(r, r.Intn(12), 5)
		b := randOrientedWord(r, r.Intn(12), 5)
		if Score(a, b, tb) != Score(a.Rev(), b.Rev(), tb) {
			t.Fatalf("joint reversal changed score: %v vs %v", a, b)
		}
	}
}

func TestScoreMonotoneInWindow(t *testing.T) {
	// Extending a site never lowers P_score (free gaps).
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 100; trial++ {
		tb := randTable(r, 4, 0.5)
		a := randOrientedWord(r, 3+r.Intn(6), 4)
		b := randOrientedWord(r, 4+r.Intn(8), 4)
		full := Score(a, b, tb)
		lo := r.Intn(len(b))
		hi := lo + r.Intn(len(b)-lo)
		sub := Score(a, b[lo:hi], tb)
		if sub > full {
			t.Fatalf("sub-window scored higher: %v > %v", sub, full)
		}
	}
}

func TestAlignColsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 200; trial++ {
		tb := randTable(r, 4, 0.5)
		a := randOrientedWord(r, r.Intn(10), 4)
		b := randOrientedWord(r, r.Intn(10), 4)
		sc, cols := Align(a, b, tb)
		if sc != Score(a, b, tb) {
			t.Fatalf("Align score %v != Score %v", sc, Score(a, b, tb))
		}
		if !ValidCols(cols, len(a), len(b)) {
			t.Fatalf("invalid columns %v", cols)
		}
		if ColsScore(cols) != sc {
			t.Fatalf("columns sum %v != score %v", ColsScore(cols), sc)
		}
		for _, c := range cols {
			if tb.Score(a[c.I], b[c.J]) != c.Sigma {
				t.Fatalf("column σ mismatch at %v", c)
			}
			if c.Sigma <= 0 {
				t.Fatalf("non-positive scoring column %v", c)
			}
		}
	}
}

func TestBandedLowerBoundAndExactWideBand(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		tb := randTable(r, 4, 0.5)
		a := randOrientedWord(r, r.Intn(15), 4)
		b := randOrientedWord(r, r.Intn(15), 4)
		full := Score(a, b, tb)
		for _, band := range []int{1, 3, 5} {
			if v := ScoreBanded(a, b, tb, band); v > full {
				t.Fatalf("banded score %v exceeds full %v", v, full)
			}
		}
		wide := len(a) + len(b) + 1
		if v := ScoreBanded(a, b, tb, wide); v != full {
			t.Fatalf("wide band %v != full %v", v, full)
		}
	}
}

func TestBestOrient(t *testing.T) {
	tb := score.NewTable()
	a := symbol.Word{1, 2}
	b := symbol.Word{-2, -1} // = (1 2)ᴿ
	tb.Set(1, 1, 5)
	tb.Set(2, 2, 5)
	sc, rev := BestOrient(a, b, tb)
	if sc != 10 || !rev {
		t.Fatalf("BestOrient = (%v,%v), want (10,true)", sc, rev)
	}
	sc, rev = BestOrient(a, symbol.Word{1, 2}, tb)
	if sc != 10 || rev {
		t.Fatalf("BestOrient fwd = (%v,%v), want (10,false)", sc, rev)
	}
}

func TestPlacementsTightAndOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	for trial := 0; trial < 150; trial++ {
		tb := randTable(r, 4, 0.5)
		a := randOrientedWord(r, 1+r.Intn(5), 4)
		b := randOrientedWord(r, 1+r.Intn(12), 4)
		ps := Placements(a, b, tb, 0)
		full := Score(a, b, tb)
		if len(ps) == 0 {
			if full != 0 {
				t.Fatalf("no placements but full score %v", full)
			}
			continue
		}
		last := ps[len(ps)-1]
		if last.Score != full {
			t.Fatalf("best placement %v != full score %v", last.Score, full)
		}
		prev := 0.0
		for _, p := range ps {
			if p.Lo < 0 || p.Hi > len(b) || p.Lo >= p.Hi {
				t.Fatalf("bad window %+v", p)
			}
			if p.Score <= prev {
				t.Fatalf("placements not strictly increasing: %+v", ps)
			}
			prev = p.Score
			// The window really achieves the claimed score...
			if got := Score(a, b[p.Lo:p.Hi], tb); got != p.Score {
				t.Fatalf("window [%d,%d) scores %v, claimed %v", p.Lo, p.Hi, got, p.Score)
			}
			// ...and is tight: shrinking either side strictly loses.
			if got := Score(a, b[p.Lo+1:p.Hi], tb); got >= p.Score {
				t.Fatalf("window not left-tight: [%d,%d)", p.Lo, p.Hi)
			}
			if got := Score(a, b[p.Lo:p.Hi-1], tb); got >= p.Score {
				t.Fatalf("window not right-tight: [%d,%d)", p.Lo, p.Hi)
			}
		}
	}
}
