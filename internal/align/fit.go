package align

import (
	"repro/internal/score"
	"repro/internal/symbol"
)

// Placement is a candidate site for a full word inside a larger zone: the
// half-open window [Lo, Hi) of the zone achieves alignment score Score
// against the whole query word, and no optimal alignment with right end at
// Hi uses a narrower window.
type Placement struct {
	Lo, Hi int
	Score  float64
}

// Placements computes the Pareto frontier of fit-alignment placements of
// query a inside zone b: for every window right end e where the best
// achievable score strictly increases, it reports the minimal window
// [Lo, e) attaining that score. These are exactly the candidate intervals
// the TPA subroutine feeds to the interval-selection algorithm: any larger
// window with the same score only blocks more of the zone.
//
// On a compiled (float64 or quantized) σ it costs one O(|b|) index of the
// zone, then O(|a|·(hits + breakpoints)): each DP row costs its positive σ
// hits in b plus the breakpoints of the row before it (see stepRow). The
// interface path runs in O(|a|·|b|) time. Space is O(|b|). Windows with
// score ≤ minScore are omitted.
func Placements(a, b symbol.Word, sc score.Scorer, minScore float64) []Placement {
	s := NewScratch()
	defer s.Release()
	return s.Placements(a, b, sc, minScore)
}

// Placements is the kernel form of the package-level Placements: the
// one-query case of PlacementsEach, returning a slice the caller owns.
func (s *Scratch) Placements(a, b symbol.Word, sc score.Scorer, minScore float64) []Placement {
	z := zone{b: b, maxID: maxID(b)}
	return s.placements(nil, a, &z, sc, minScore)
}

// PlacementsEach computes the Placements frontier of every query against
// the one zone b and hands query q's frontier to emit(q, ps). The zone is
// indexed once for all queries, so on a compiled σ each query
// costs only its hits and breakpoints, not |b|. ps is valid only during the
// call (the next query reuses its storage), and emit must not run kernels
// on s.
func (s *Scratch) PlacementsEach(b symbol.Word, queries []symbol.Word, sc score.Scorer, minScore float64, emit func(q int, ps []Placement)) {
	z := zone{b: b, maxID: maxID(b)}
	for q, a := range queries {
		s.out = s.placements(s.out[:0], a, &z, sc, minScore)
		emit(q, s.out)
	}
}

// zone is the placement zone of a Placements run: indexed is the compiled
// matrix s.bi and bHead currently index b under, nil until the first
// compiled-path query.
type zone struct {
	b       symbol.Word
	maxID   int32
	indexed *score.Compiled
}

// noStart is the start of a placement pair with no scoring column. It
// exceeds every real start, so value-0 pairs win their ties.
const noStart = int32(1) << 30

// placements appends the frontier of query a in zone z to dst, allocating
// it at its exact size when dst is nil. The kernel is picked per query as
// resolve would pick it for (a, z.b).
func (s *Scratch) placements(dst []Placement, a symbol.Word, z *zone, sc score.Scorer, minScore float64) []Placement {
	if len(a) == 0 || len(z.b) == 0 {
		return dst
	}
	c, unit := resolveID(sc, max(maxID(a), z.maxID), min(len(a), len(z.b)), len(a)*len(z.b))
	if c == nil {
		return s.placementsDense(dst, a, z.b, sc, minScore)
	}
	if z.indexed != c {
		s.indexF(z.b, c)
		z.indexed = c
	}
	return s.placementsSteps(dst, a, c, unit, minScore)
}

// placementsDense is the interface path of Placements: the dense DP over
// (value, start) pairs.
func (s *Scratch) placementsDense(dst []Placement, a, b symbol.Word, sc score.Scorer, minScore float64) []Placement {
	m, n := len(a), len(b)
	// d[j]: best score of aligning all of a against b[?..j).
	// st[j]: latest start of the first scoring column among optimal
	// alignments achieving d[j]; noStart when no scoring column exists.
	dPrev, dCur := s.floatRows(n + 1)
	s.sa, s.sb = growI(s.sa, n+1), growI(s.sb, n+1)
	stPrev, stCur := s.sa, s.sb
	for j := range stPrev {
		stPrev[j] = noStart
	}
	for i := 1; i <= m; i++ {
		ai := a[i-1]
		dCur[0] = 0
		stCur[0] = noStart
		for j := 1; j <= n; j++ {
			sv := sc.Score(ai, b[j-1])
			// Candidate moves: (value, start).
			bestV := dPrev[j]
			bestS := stPrev[j]
			if dCur[j-1] > bestV || (dCur[j-1] == bestV && stCur[j-1] > bestS) {
				bestV, bestS = dCur[j-1], stCur[j-1]
			}
			if sv > 0 {
				v := dPrev[j-1] + sv
				st := stPrev[j-1]
				if st == noStart {
					st = int32(j - 1) // this diagonal is the first scoring column
				}
				if v > bestV || (v == bestV && st > bestS) {
					bestV, bestS = v, st
				}
			}
			dCur[j], stCur[j] = bestV, bestS
		}
		dPrev, dCur = dCur, dPrev
		stPrev, stCur = stCur, stPrev
	}
	// A strict increase at j means every optimal alignment of prefix b[..j)
	// has its last scoring column at j−1, so the emitted window is tight on
	// the right as well as on the left.
	emits := func(j int) bool {
		return dPrev[j] > dPrev[j-1] && dPrev[j] > minScore && stPrev[j] != noStart
	}
	if dst == nil {
		if dst = exactPlacements(n, emits); dst == nil {
			return nil
		}
	}
	for j := 1; j <= n; j++ {
		if emits(j) {
			dst = append(dst, Placement{Lo: int(stPrev[j]), Hi: j, Score: dPrev[j]})
		}
	}
	return dst
}

// exactPlacements returns an empty slice with room for the k in [1, n] for
// which emits(k) holds, or nil when there are none: Placements results are
// memoized by callers, so they cannot live in the scratch arena and are
// allocated once at their exact size.
func exactPlacements(n int, emits func(k int) bool) []Placement {
	cnt := 0
	for k := 1; k <= n; k++ {
		if emits(k) {
			cnt++
		}
	}
	if cnt == 0 {
		return nil
	}
	return make([]Placement, 0, cnt)
}

// step is one breakpoint of a placement DP row: the row's cells hold the
// pair (v, s) from column col up to the next breakpoint. A row is
// lexicographically nondecreasing in (value, start) — larger value wins,
// ties prefer the larger start — so it is a step function, stored as its
// breakpoints in ascending column order, each pair strictly above the last.
type step struct {
	v   float64
	col int32
	s   int32
}

// below reports (x.v, x.s) < (y.v, y.s) lexicographically.
func below(x, y step) bool {
	return x.v < y.v || (x.v == y.v && x.s < y.s)
}

// placementsSteps is Placements on a compiled σ, over the zone indexF last
// indexed: the DP rows are kept as breakpoints (stepRow), rows whose symbol
// scores positively against nothing in the zone are skipped whole, and the
// frontier is read off the last row's breakpoints. Scores are scaled by
// unit (see resolve) before they meet minScore.
func (s *Scratch) placementsSteps(dst []Placement, a symbol.Word, c *score.Compiled, unit, minScore float64) []Placement {
	s.queryRows(a, c, true)
	row := append(s.steps[:0], step{s: noStart})
	next := s.stepsNext
	for i, sym := range a {
		if pos, val := s.sigmaRow(c, i, sym); len(pos) > 0 {
			next = stepRow(next[:0], row, pos, val)
			row, next = next, row
		}
	}
	s.steps, s.stepsNext = row, next
	// A value rise marks a strict increase of the dense row (see
	// placementsDense); a start-only breakpoint is not one.
	emits := func(k int) bool {
		return row[k].v > row[k-1].v && row[k].v*unit > minScore && row[k].s != noStart
	}
	if dst == nil {
		if dst = exactPlacements(len(row)-1, emits); dst == nil {
			return nil
		}
	}
	for k := 1; k < len(row); k++ {
		if emits(k) {
			dst = append(dst, Placement{Lo: int(row[k].s), Hi: int(row[k].col), Score: row[k].v * unit})
		}
	}
	return dst
}

// stepRow advances a placement row held as breakpoints (old) by one DP row
// and appends the new row's breakpoints to next. pos/val are the row's
// positive cells, pos ascending: the hit at p offers the candidate
// (old[p].v + σ, old[p].s) at column p+1, with start p when old[p] has no
// scoring column. A nonpositive cell reduces to max(up, left), so each new
// cell is the lexicographic max of its old cell and the running max of the
// candidates at or before its column — the same float add and the same
// maxima as the dense sweep, so every cell is bit-identical. The new row
// can change only at old breakpoints and hit columns, so the update costs
// O(hits + breakpoints) in one merge pass.
func stepRow(next, old []step, pos []int32, val []float64) []step {
	cur := old[0] // the old row's pair at the current column
	run := cur    // running max of the candidates; old[0] is below every cell
	next = append(next, cur)
	o := 1
	for k, p := range pos {
		// Old breakpoints before the hit column: above run they are
		// the new row's breakpoints, at or below it run covers them.
		for ; o < len(old) && old[o].col <= p; o++ {
			if cur = old[o]; below(run, cur) {
				next = append(next, cur)
			}
		}
		cand := step{v: cur.v + val[k], s: cur.s}
		if cand.s == noStart {
			cand.s = p // this diagonal is the first scoring column
		}
		if below(run, cand) {
			run = cand
		}
		if o < len(old) && old[o].col == p+1 {
			cur = old[o]
			o++
		}
		x := cur
		if below(x, run) {
			x = run
		}
		if below(next[len(next)-1], x) {
			x.col = p + 1
			next = append(next, x)
		}
	}
	// Past the last hit the new row is max(old, run): the old breakpoints
	// run covers add nothing, and from the first one above it on the old
	// row carries over verbatim.
	for ; o < len(old); o++ {
		if below(run, old[o]) {
			return append(next, old[o:]...)
		}
	}
	return next
}
