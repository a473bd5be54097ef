package isp

import (
	"slices"
	"sort"

	"repro/internal/fenwick"
)

// Scratch holds the reusable working state of TwoPhaseScratch: the filtered
// item list, the compressed coordinate table, the Fenwick array, the
// per-job logs (dense, indexed by job id), the evaluation stack, and the
// selection buffer. One call's cost then allocates nothing in steady state
// — the paper's TPA subroutine runs TwoPhase thousands of times per
// improvement round, which made the per-call maps and trees the hottest
// allocation site of candidate simulation. Not safe for concurrent use: one
// goroutine, one Scratch.
type Scratch struct {
	items []Interval
	his   []int
	fen   []float64
	stack []stackedIv
	sel   []Interval

	jobLog   [][]jobEntry
	jobTotal []float64
	usedJob  []bool
	touched  []int32 // jobs the last call wrote, for O(touched) reset
}

type jobEntry struct {
	hi  int
	sum float64 // running total of pushed v for this job up to this entry
}

type stackedIv struct {
	iv Interval
	v  float64
}

// grow sizes the per-job tables for job ids in [0, numJobs).
func (s *Scratch) grow(numJobs int) {
	if len(s.jobLog) < numJobs {
		s.jobLog = append(s.jobLog, make([][]jobEntry, numJobs-len(s.jobLog))...)
		s.jobTotal = append(s.jobTotal, make([]float64, numJobs-len(s.jobTotal))...)
		s.usedJob = append(s.usedJob, make([]bool, numJobs-len(s.usedJob))...)
	}
}

// TwoPhase runs the two-phase algorithm of Berman and DasGupta ("Multi-phase
// algorithms for throughput maximization for real-time scheduling", J. Comb.
// Optim. 4(3), 2000), the ratio-2, O(n log n) interval-selection algorithm
// cited in §3.4.
//
// Evaluation phase: process intervals by non-decreasing right endpoint,
// assigning each the residual value
//
//	v(I) = p(I) − Σ { v(J) : J on the stack, J conflicts with I }
//
// and pushing I when v(I) > 0. Selection phase: pop the stack (decreasing
// right endpoint), selecting every interval compatible with the selection so
// far. The total profit of the selection is at least half the optimum.
//
// The conflict sum decomposes as (time overlaps) + (same job) − (both); the
// first term is a Fenwick suffix sum over right endpoints, the last two are
// per-job prefix sums, giving O(log n) per interval.
//
// The result's Selected slice is freshly allocated; hot callers use
// TwoPhaseScratch instead.
func TwoPhase(intervals []Interval) Result {
	maxJob := -1
	for _, iv := range intervals {
		if iv.Job > maxJob {
			maxJob = iv.Job
		}
	}
	res := TwoPhaseScratch(new(Scratch), intervals, maxJob+1)
	res.Selected = append([]Interval(nil), res.Selected...)
	return res
}

// TwoPhaseScratch is TwoPhase over caller-owned scratch state: every
// internal structure, the returned Selected slice included, lives in s and
// is valid only until the next call with the same Scratch. Job ids must lie
// in [0, numJobs). The selection is identical to TwoPhase — the evaluation
// order is a total order (Hi, Lo, ID), so the sort produces one sequence
// regardless of algorithm or scratch reuse.
func TwoPhaseScratch(s *Scratch, intervals []Interval, numJobs int) Result {
	s.undo()
	items := s.items[:0]
	for _, iv := range intervals {
		if iv.Profit > 0 && iv.Hi > iv.Lo {
			items = append(items, iv)
		}
	}
	s.items = items
	if len(items) == 0 {
		return Result{}
	}
	slices.SortFunc(items, func(a, b Interval) int {
		if a.Hi != b.Hi {
			return a.Hi - b.Hi
		}
		if a.Lo != b.Lo {
			return a.Lo - b.Lo
		}
		return a.ID - b.ID
	})

	// Coordinate-compress right endpoints for the Fenwick tree.
	his := s.his[:0]
	for _, iv := range items {
		his = append(his, iv.Hi)
	}
	slices.Sort(his)
	his = dedupInts(his)
	s.his = his
	rank := func(x int) int { return sort.SearchInts(his, x) }

	// undo left the tree all zero, and any room Grow adds is zero too.
	s.fen = slices.Grow(s.fen[:0], len(his)+1)[:len(his)+1]
	overlapByHi := fenwick.Wrap(s.fen)
	s.grow(numJobs)

	stack := s.stack[:0]
	for _, iv := range items {
		// Σ v(J) over stack intervals overlapping iv in time: pushed J have
		// J.Hi ≤ iv.Hi; overlap ⇔ J.Hi > iv.Lo.
		overlap := overlapByHi.Total() - overlapByHi.PrefixSum(rank(iv.Lo+1))
		// Σ v(J) over stack intervals of the same job.
		sameJob := s.jobTotal[iv.Job]
		// Σ v(J) over stack intervals of the same job that also overlap —
		// counted twice above. Per-job entries have non-decreasing hi.
		both := 0.0
		log := s.jobLog[iv.Job]
		if len(log) > 0 {
			// First entry with hi > iv.Lo.
			k := sort.Search(len(log), func(i int) bool { return log[i].hi > iv.Lo })
			if k < len(log) {
				prior := 0.0
				if k > 0 {
					prior = log[k-1].sum
				}
				both = log[len(log)-1].sum - prior
			}
		}
		v := iv.Profit - (overlap + sameJob - both)
		if v <= 0 {
			continue
		}
		stack = append(stack, stackedIv{iv, v})
		overlapByHi.Add(rank(iv.Hi), v)
		if len(log) == 0 && s.jobTotal[iv.Job] == 0 {
			s.touched = append(s.touched, int32(iv.Job))
		}
		s.jobTotal[iv.Job] += v
		s.jobLog[iv.Job] = append(log, jobEntry{hi: iv.Hi, sum: s.jobTotal[iv.Job]})
	}
	s.stack = stack

	// Selection phase: pop in reverse order; candidates have hi no larger
	// than every selected interval's hi, so time conflict ⇔ candidate.Hi >
	// min selected Lo.
	res := Result{Selected: s.sel[:0]}
	minLo := int(^uint(0) >> 1) // max int
	for i := len(stack) - 1; i >= 0; i-- {
		iv := stack[i].iv
		if s.usedJob[iv.Job] || iv.Hi > minLo {
			continue
		}
		res.Selected = append(res.Selected, iv)
		res.Total += iv.Profit
		s.usedJob[iv.Job] = true
		if iv.Lo < minLo {
			minLo = iv.Lo
		}
	}
	s.sel = res.Selected
	return res
}

// undo zeroes what the last call wrote: the per-job tables of the jobs it
// touched and its span of the Fenwick array. Running it on entry rather
// than on return keeps a Scratch usable after a call that panicked
// midway, since touched and fen record every write as it happens.
func (s *Scratch) undo() {
	for _, j := range s.touched {
		s.jobLog[j] = s.jobLog[j][:0]
		s.jobTotal[j] = 0
		s.usedJob[j] = false
	}
	s.touched = s.touched[:0]
	clear(s.fen)
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
