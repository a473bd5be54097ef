// Package align implements alignment of region lists over the duplicated
// alphabet: the P_score of Definition 4 in "Aligning two fragmented
// sequences".
//
// For padded sequences u ∈ P_s̄ and v ∈ P_t̄ the paper defines
//
//	P_score(s̄, t̄) = max_{u,v} Score(u, v),  Score(u,v) = Σ σ(uᵢ, vᵢ)
//
// Because the padding symbol scores 0 against everything, P_score is the
// classic global-alignment dynamic program with free gaps:
//
//	D[i][j] = max(D[i−1][j−1] + σ(aᵢ, bⱼ), D[i−1][j], D[i][j−1])
//	D[0][·] = D[·][0] = 0
//
// The package answers each alignment question with one serial kernel:
// Score for P_score, Align for one optimal column set, ScoreBanded for a
// band-restricted score, and Placements/PlacementsEach for the Pareto
// frontier of fit placements that the TPA subroutine selects from. On a
// compiled σ every kernel runs over per-call tables of the σ hits in the
// words (see compiled.go).
package align

import (
	"slices"

	"repro/internal/score"
	"repro/internal/symbol"
)

// Score returns P_score(a, b): the maximum total σ over all monotone
// pairings of a against b with free padding. Runs in O(|a|·|b|) time and
// O(|b|) space, allocation-free in steady state (buffers come from the
// scratch pool).
func Score(a, b symbol.Word, sc score.Scorer) float64 {
	s := NewScratch()
	defer s.Release()
	return s.Score(a, b, sc)
}

// Score is the kernel form of the package-level Score, running on the
// caller's scratch arena.
func (s *Scratch) Score(a, b symbol.Word, sc score.Scorer) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if c, unit := resolve(sc, a, b, len(a)*len(b)); c != nil {
		return s.scoreCompiled(a, b, c) * unit
	}
	// σ is not symmetric in its species sides, so the argument order is
	// significant and the words are never swapped.
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
	return prev[n]
}

// BestOrient returns max(P_score(a,b), P_score(a,bᴿ)) and whether the
// maximum used the reversed orientation of b. This is the Fig. 7 rule for
// matches involving a full site.
func BestOrient(a, b symbol.Word, sc score.Scorer) (float64, bool) {
	s := NewScratch()
	defer s.Release()
	return s.BestOrient(a, b, sc)
}

// BestOrient is the kernel form of the package-level BestOrient.
func (s *Scratch) BestOrient(a, b symbol.Word, sc score.Scorer) (float64, bool) {
	fwd := s.Score(a, b, sc)
	rev := s.Score(a, b.Rev(), sc)
	if rev > fwd {
		return rev, true
	}
	return fwd, false
}

// Col is one scoring column of an alignment: position I of the first word
// paired with position J of the second, contributing Sigma.
type Col struct {
	I, J  int
	Sigma float64
}

// Align returns P_score(a, b) together with the scoring columns (pairs with
// σ > 0) of one optimal alignment, in increasing order of both coordinates.
// Runs in O(|a|·|b|) time and space: the traceback reads the full DP
// matrix. The columns are the caller's (nil when there are none).
func Align(a, b symbol.Word, sc score.Scorer) (float64, []Col) {
	s := NewScratch()
	defer s.Release()
	v, cols := s.Align(a, b, sc)
	return v, owned(cols)
}

// Align is the kernel form of the package-level Align, filling the DP matrix
// in the caller's scratch arena. The columns live in the arena too: they are
// valid until the next kernel call on s.
func (s *Scratch) Align(a, b symbol.Word, sc score.Scorer) (float64, []Col) {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0, nil
	}
	var d [][]float64
	c, unit := resolve(sc, a, b, len(a)*len(b))
	if c != nil {
		d = s.fillCompiled(a, b, c)
		sc = c // the traceback's O(m+n) lookups search the compiled rows too
	} else {
		d = s.matrixF(m, n)
		for i := 1; i <= m; i++ {
			for j := 1; j <= n; j++ {
				best := d[i-1][j-1] + sc.Score(a[i-1], b[j-1])
				if d[i-1][j] > best {
					best = d[i-1][j]
				}
				if d[i][j-1] > best {
					best = d[i][j-1]
				}
				d[i][j] = best
			}
		}
	}
	cols := s.cols[:0]
	i, j := m, n
	for i > 0 && j > 0 {
		s := sc.Score(a[i-1], b[j-1])
		switch {
		case s > 0 && d[i][j] == d[i-1][j-1]+s:
			cols = append(cols, Col{I: i - 1, J: j - 1, Sigma: s * unit})
			i, j = i-1, j-1
		case d[i][j] == d[i-1][j]:
			i--
		case d[i][j] == d[i][j-1]:
			j--
		default:
			// Zero or negative σ diagonal that ties; skip it without
			// recording a scoring column.
			i, j = i-1, j-1
		}
	}
	// Reverse into increasing order.
	slices.Reverse(cols)
	s.cols = cols
	return d[m][n] * unit, cols
}
