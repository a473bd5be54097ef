package align

import (
	"repro/internal/score"
	"repro/internal/symbol"
)

// Hirschberg returns the same result as Align — the optimal score and one
// optimal set of scoring columns — using O(|a|+|b|) working memory via the
// classic divide-and-conquer of Hirschberg (1975), adapted to free-gap
// scoring. Time remains O(|a|·|b|).
func Hirschberg(a, b symbol.Word, sc score.Scorer) (float64, []Col) {
	s := NewScratch()
	defer s.Release()
	return s.Hirschberg(a, b, sc)
}

// Hirschberg is the kernel form of the package-level Hirschberg.
func (s *Scratch) Hirschberg(a, b symbol.Word, sc score.Scorer) (float64, []Col) {
	// Resolve once at the top of the recursion; every lastRow and base-case
	// Align below then rides the same fast path (sub-words only shrink, so
	// a quantized matrix that fits here fits everywhere below). The splits
	// compare exact sums on a quantized matrix, so only the emitted columns
	// need dequantizing.
	c, unit := resolve(sc, a, b, len(a)*len(b))
	if c != nil {
		sc = c
	}
	cols := s.hirsch(a, b, 0, 0, sc)
	for k := range cols {
		cols[k].Sigma *= unit
	}
	return ColsScore(cols), cols
}

func (s *Scratch) hirsch(a, b symbol.Word, ioff, joff int, sc score.Scorer) []Col {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return nil
	}
	if m == 1 || n == 1 {
		// Small base case: full traceback is cheap.
		_, cols := s.Align(a, b, sc)
		for k := range cols {
			cols[k].I += ioff
			cols[k].J += joff
		}
		return cols
	}
	mid := m / 2
	// Forward scores for a[:mid] vs every prefix of b, backward scores for
	// a[mid:] vs every suffix — into the dedicated boundary rows, which stay
	// valid while lastRow reuses the rolled working pair.
	s.ga = s.lastRowInto(s.ga, a[:mid], b, sc)
	s.gb = s.lastRowInto(s.gb, symbol.Word(a[mid:]).Rev(), b.Rev(), sc)
	fwd, bwd := s.ga, s.gb
	// Choose the split point of b maximizing the combined score.
	split, best := 0, fwd[0]+bwd[n]
	for j := 1; j <= n; j++ {
		if v := fwd[j] + bwd[n-j]; v > best {
			best, split = v, j
		}
	}
	left := s.hirsch(a[:mid], b[:split], ioff, joff, sc)
	right := s.hirsch(a[mid:], b[split:], ioff+mid, joff+split, sc)
	return append(left, right...)
}

// lastRowInto computes D[len(a)][j] for all j in O(|a|·|b|) time, O(|b|)
// space, into dst (resized as needed) — leaving the rolled working rows free
// for the caller's next kernel call.
//
// Note: reversing both words preserves P_score because σ(x,y) does not
// change when the pairing order flips — the DP is direction-symmetric.
// (This is positional reversal only; symbol reversal is handled by the
// caller via Word.Rev when orientation matters.)
func (s *Scratch) lastRowInto(dst []float64, a, b symbol.Word, sc score.Scorer) []float64 {
	if cf := fastPath(sc, max(maxID(a), maxID(b)), len(a)*len(b)); cf != nil {
		return s.lastRowCompiledInto(dst, a, b, cf)
	}
	n := len(b)
	prev, cur := s.floatRows(n + 1)
	for i := 1; i <= len(a); i++ {
		ai := a[i-1]
		cur[0] = 0
		for j := 1; j <= n; j++ {
			best := prev[j-1] + sc.Score(ai, b[j-1])
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
	dst = growF(dst, n+1)
	copy(dst, prev)
	return dst
}
