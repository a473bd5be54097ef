// Package greedy implements the baseline heuristics the paper argues
// against in §1 — best-match-first greedy strategies — together with an
// adversarial instance family on which greedy is a factor ≈2 from optimal
// while the approximation algorithms stay near the optimum. The MAX-SNP
// hardness result (Theorem 2) implies every polynomial heuristic has such a
// family; this package exhibits the classic one for greedy.
package greedy

import (
	"sort"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/symbol"
)

// Matching is the simplest credible heuristic: score every H×M fragment
// pair by best-orientation whole-fragment alignment, then greedily take the
// highest-scoring pairs, consuming both fragments. The result is a set of
// full–full matches (always consistent).
func Matching(in *core.Instance) *core.Solution {
	// Prepare keeps a caller-selected scoring mode (e.g. an int32-quantized
	// matrix) on its fast path; one scratch arena serves the whole sweep.
	sigma := score.Prepare(in.Sigma, in.MaxSymbolID())
	scr := align.NewScratch()
	defer scr.Release()
	type cand struct {
		h, m  int
		rev   bool
		score float64
	}
	var cands []cand
	for hi := range in.H {
		for mi := range in.M {
			sc, rev := scr.BestOrient(in.H[hi].Regions, in.M[mi].Regions, sigma)
			if sc > 0 {
				cands = append(cands, cand{h: hi, m: mi, rev: rev, score: sc})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].h != cands[j].h {
			return cands[i].h < cands[j].h
		}
		return cands[i].m < cands[j].m
	})
	usedH := make([]bool, len(in.H))
	usedM := make([]bool, len(in.M))
	sol := &core.Solution{}
	for _, c := range cands {
		if usedH[c.h] || usedM[c.m] {
			continue
		}
		usedH[c.h], usedM[c.m] = true, true
		sol.Matches = append(sol.Matches, core.Match{
			HSite: core.Site{Species: core.SpeciesH, Frag: c.h, Lo: 0, Hi: in.H[c.h].Len()},
			MSite: core.Site{Species: core.SpeciesM, Frag: c.m, Lo: 0, Hi: in.M[c.m].Len()},
			Rev:   c.rev,
			Score: c.score,
		})
	}
	return sol
}

// Placement is a stronger greedy: every Pareto placement of every H
// fragment into every M fragment is a candidate; repeatedly take the
// highest-scoring placement whose window is still free and whose H fragment
// is unused. Produces 1-islands only (full H sites in disjoint M windows).
func Placement(in *core.Instance) *core.Solution {
	sigma := score.Prepare(in.Sigma, in.MaxSymbolID())
	scr := align.NewScratch()
	defer scr.Release()
	type cand struct {
		h, m   int
		rev    bool
		lo, hi int
		score  float64
	}
	queries := make([]symbol.Word, 0, 2*len(in.H))
	for _, h := range in.H {
		queries = append(queries, h.Regions, h.Regions.Rev())
	}
	var cands []cand
	for mi := range in.M {
		scr.PlacementsEach(in.M[mi].Regions, queries, sigma, 0, func(q int, ps []align.Placement) {
			for _, p := range ps {
				cands = append(cands, cand{h: q >> 1, m: mi, rev: q&1 == 1, lo: p.Lo, hi: p.Hi, score: p.Score})
			}
		})
	}
	// The sort's keys identify a candidate (a frontier's scores strictly
	// rise), so the result does not depend on the order cands were built in.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.h != b.h {
			return a.h < b.h
		}
		if a.m != b.m {
			return a.m < b.m
		}
		if a.lo != b.lo {
			return a.lo < b.lo
		}
		return !a.rev && b.rev
	})
	usedH := make([]bool, len(in.H))
	taken := make([][][2]int, len(in.M)) // occupied windows per M fragment
	sol := &core.Solution{}
	for _, c := range cands {
		if usedH[c.h] {
			continue
		}
		free := true
		for _, w := range taken[c.m] {
			if c.lo < w[1] && w[0] < c.hi {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		usedH[c.h] = true
		taken[c.m] = append(taken[c.m], [2]int{c.lo, c.hi})
		hs := core.Site{Species: core.SpeciesH, Frag: c.h, Lo: 0, Hi: in.H[c.h].Len()}
		ms := core.Site{Species: core.SpeciesM, Frag: c.m, Lo: c.lo, Hi: c.hi}
		sol.Matches = append(sol.Matches, core.Match{
			HSite: hs,
			MSite: ms,
			Rev:   c.rev,
			Score: scr.Score(in.SiteWord(hs), in.SiteWord(ms).Orient(c.rev), sigma),
		})
	}
	return sol
}
