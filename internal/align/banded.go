package align

import (
	"repro/internal/score"
	"repro/internal/symbol"
)

// minusInf is a sentinel for unreachable banded-DP cells, far below any
// score reachable from finite inputs.
const minusInf = -1e300

// ScoreBanded computes the free-gap alignment score restricted to DP cells
// within a diagonal band of half-width band around the slope-corrected
// diagonal j ≈ i·|b|/|a|. It is a lower bound on Score(a, b) and equals it
// whenever some optimal alignment stays inside the band — always true for
// band ≥ max(|a|,|b|). Useful when the words are near-collinear, e.g.
// orthologous contigs with few rearrangements; runs in O(|a|·band) time.
func ScoreBanded(a, b symbol.Word, sc score.Scorer, band int) float64 {
	s := NewScratch()
	defer s.Release()
	return s.ScoreBanded(a, b, sc, band)
}

// ScoreBanded is the kernel form of the package-level ScoreBanded.
func (s *Scratch) ScoreBanded(a, b symbol.Word, sc score.Scorer, band int) float64 {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0
	}
	if band < 1 {
		band = 1
	}
	if c, unit := resolve(sc, a, b, len(a)*min(len(b), 2*band+1)); c != nil {
		return s.scoreBandedCompiled(a, b, c, band) * unit
	}
	prev, cur := s.floatRows(n + 1)
	// Row 0 is all zeros: leading gaps are free.
	for i := 1; i <= m; i++ {
		ai := a[i-1]
		center := i * n / m
		lo := max(1, center-band)
		hi := min(n, center+band)
		for j := range cur {
			cur[j] = minusInf
		}
		cur[0] = 0
		for j := lo; j <= hi; j++ {
			best := minusInf
			if prev[j-1] > minusInf/2 {
				best = prev[j-1] + sc.Score(ai, b[j-1])
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
