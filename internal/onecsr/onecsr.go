// Package onecsr implements §3.3–3.4: the 1-CSR restriction (a single M
// fragment), its reduction to the Interval Selection Problem, the Theorem 3
// doubling that lifts any 1-CSR algorithm to general CSR at twice the
// ratio, and the resulting Corollary 1 algorithm — a polynomial-time
// 4-approximation for CSR built on the ratio-2 two-phase ISP algorithm.
package onecsr

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/isp"
	"repro/internal/score"
	"repro/internal/symbol"
)

// placementSet builds the ISP instance of §3.4 for fragments H against a
// single reference word (fragment mIdx of species M): every Pareto-optimal
// fit placement of every H fragment, in both orientations, becomes an
// interval with profit MS(hᵢ, m(d,e)). The intervals live in w.ivs, valid
// until the next call.
func (w *work) placementSet(in *core.Instance, mIdx int) []isp.Interval {
	total := 0
	for _, h := range in.H {
		total += len(h.Regions)
	}
	// The reversed words share one slab, sized up front so that growing it
	// never moves the words already in it.
	w.rev = slices.Grow(w.rev[:0], total)
	w.queries = w.queries[:0]
	for _, h := range in.H {
		n := len(w.rev)
		w.rev = h.Regions.AppendOrient(w.rev, true)
		w.queries = append(w.queries, h.Regions, w.rev[n:])
	}
	out := w.ivs[:0]
	id := 0
	w.scr.PlacementsEach(in.M[mIdx].Regions, w.queries, in.Sigma, 0, func(q int, ps []align.Placement) {
		orient := q & 1 // queries alternate forward, reversed
		for _, p := range ps {
			out = append(out, isp.Interval{
				ID:     id<<1 | orient,
				Job:    q >> 1,
				Lo:     p.Lo,
				Hi:     p.Hi,
				Profit: p.Score,
			})
			id++
		}
	})
	clear(w.queries) // the pooled work keeps no reference to the instance
	w.ivs = out
	return out
}

// SolveOne solves a 1-CSR instance (single M fragment) via the two-phase
// ISP algorithm, returning a consistent solution of full H-site matches
// into disjoint windows of m — ratio 2 by Berman–DasGupta.
func SolveOne(in *core.Instance) (*core.Solution, error) {
	w := newWork()
	defer w.release()
	return w.solveOne(nil, in, true)
}

// work is the scratch state one 4-approximation threads through both
// Theorem 3 halves: one alignment arena for every placement DP, split and
// re-score, one ISP scratch for both two-phase selections, and the
// buffers of the placement queries, the ISP intervals, the concatenated M
// word and the split. A work comes from workPool and goes back when the
// 4-approximation returns, so its buffers stop growing once they have seen
// the largest instance. No solution it returns aliases it.
type work struct {
	scr     align.Scratch
	isp     isp.Scratch
	queries []symbol.Word
	rev     symbol.Word // the reversed query words, back to back
	ivs     []isp.Interval
	one     []core.Match     // the concatenation path's 1-CSR matches
	halves  [2][]core.Match  // FourApprox's two candidate solutions
	catIn   core.Instance    // the companion instance (H, M′)
	catM    [1]core.Fragment // its one M fragment, M′
	bounds  []int
	parts   []part
	ori     symbol.Word // oriented returns reversed words here
}

var workPool = sync.Pool{New: func() any { return new(work) }}

func newWork() *work { return workPool.Get().(*work) }

// release returns w to workPool, dropping its references to the instance.
func (w *work) release() {
	w.catIn = core.Instance{}
	workPool.Put(w)
}

// oriented returns x, or xᴿ in w's buffer (valid until the next call).
func (w *work) oriented(x symbol.Word, rev bool) symbol.Word {
	if !rev {
		return x
	}
	w.ori = x.AppendOrient(w.ori[:0], true)
	return w.ori
}

// solveOne is SolveOne on w's scratch, appending the matches to dst. With
// scored false the matches carry no score: the concatenation path re-scores
// every part after splitting, so scoring the concatenated matches would be
// thrown away.
func (w *work) solveOne(dst []core.Match, in *core.Instance, scored bool) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.M) != 1 {
		return nil, fmt.Errorf("onecsr: instance has %d M fragments, want 1", len(in.M))
	}
	// Prepare σ once for the whole placement sweep (a no-op when the caller
	// already passed a prepared instance, as FourApprox does).
	cin := *in
	cin.Sigma = score.Prepare(in.Sigma, in.MaxSymbolID())
	// Jobs are H fragments, so len(H) bounds the job ids; the selection is
	// the same as TwoPhase's, which sizes by the largest id present.
	res := isp.TwoPhaseScratch(&w.isp, w.placementSet(&cin, 0), len(in.H))
	sol := &core.Solution{Matches: slices.Grow(dst, len(res.Selected))}
	for _, iv := range res.Selected {
		rev := iv.ID&1 == 1
		h := in.H[iv.Job].Regions
		hs := core.Site{Species: core.SpeciesH, Frag: iv.Job, Lo: 0, Hi: len(h)}
		ms := core.Site{Species: core.SpeciesM, Frag: 0, Lo: iv.Lo, Hi: iv.Hi}
		mt := core.Match{HSite: hs, MSite: ms, Rev: rev}
		if scored {
			mt.Score = w.scr.Score(h, w.oriented(in.SiteWord(ms), rev), cin.Sigma)
		}
		sol.Matches = append(sol.Matches, mt)
	}
	return sol, nil
}

// concatM builds the Theorem 3 companion instance (H, M′) in w.catIn: all
// M fragments concatenated, in given order and orientation, into a single
// fragment. boundaries[i] is the start offset of fragment i in the
// concatenation.
func (w *work) concatM(in *core.Instance) (*core.Instance, []int) {
	w.bounds = slices.Grow(w.bounds[:0], len(in.M)+1)
	cat := &w.catM[0]
	cat.Name = "M'"
	cat.Regions = cat.Regions[:0]
	for _, f := range in.M {
		w.bounds = append(w.bounds, len(cat.Regions))
		cat.Regions = append(cat.Regions, f.Regions...)
	}
	w.bounds = append(w.bounds, len(cat.Regions))
	w.catIn = core.Instance{
		Name:  in.Name + "+concatM",
		H:     in.H,
		M:     w.catM[:],
		Alpha: in.Alpha,
		Sigma: in.Sigma,
	}
	return &w.catIn, w.bounds
}

// part is one piece of a split match: the H columns [hLo, hHi) and the
// positions [mLo, mHi) of M′ that fall in M fragment mFrag.
type part struct {
	mFrag    int
	hLo, hHi int
	mLo, mHi int
}

// splitByBounds maps a solution of the concatenated instance back to the
// original: every match window on M′ is split at fragment boundaries, the
// alignment columns are partitioned accordingly, and each part becomes a
// match against the original fragment. Scores are re-computed per part (they
// can only grow). H fragments whose window spans several M fragments become
// chain (caterpillar) fragments, which remain consistent. The matches are
// appended to dst.
func (w *work) splitByBounds(dst []core.Match, in *core.Instance, cat *core.Instance, bounds []int, sol *core.Solution) (*core.Solution, error) {
	out := &core.Solution{Matches: dst}
	fragOf := func(pos int) int {
		return sort.SearchInts(bounds, pos+1) - 1
	}
	for _, mt := range sol.Matches {
		h := cat.SiteWord(mt.HSite)
		mw := cat.SiteWord(mt.MSite)
		_, cols := w.scr.Align(h, w.oriented(mw, mt.Rev), cat.Sigma)
		if len(cols) == 0 {
			continue
		}
		// Columns are in oriented-m coordinates; map back to absolute
		// positions on M′, then split by original fragment.
		parts := w.parts[:0]
		for _, c := range cols {
			mpos := mt.MSite.Lo + c.J
			if mt.Rev {
				mpos = mt.MSite.Lo + (mt.MSite.Len() - 1 - c.J)
			}
			f := fragOf(mpos)
			if len(parts) == 0 || parts[len(parts)-1].mFrag != f {
				parts = append(parts, part{mFrag: f, hLo: c.I, hHi: c.I + 1, mLo: mpos, mHi: mpos + 1})
			} else {
				p := &parts[len(parts)-1]
				p.hHi = c.I + 1
				if mpos < p.mLo {
					p.mLo = mpos
				}
				if mpos+1 > p.mHi {
					p.mHi = mpos + 1
				}
			}
		}
		// A straddling match becomes a chain of border matches: every part
		// site must reach its fragment end on the side facing its
		// neighbouring parts (the window covered those regions, so the
		// extensions stay disjoint from other matches), and the outer
		// h-sides extend to the h fragment's ends. Without the extensions a
		// later fill could slip a match beyond a chain link, which no
		// conjecture pair can realize.
		if len(parts) > 1 {
			for i := range parts {
				p := &parts[i]
				fLo, fHi := bounds[p.mFrag], bounds[p.mFrag+1]
				if i > 0 {
					if parts[i-1].mFrag > p.mFrag {
						p.mHi = fHi
					} else {
						p.mLo = fLo
					}
				}
				if i < len(parts)-1 {
					if parts[i+1].mFrag > p.mFrag {
						p.mHi = fHi
					} else {
						p.mLo = fLo
					}
				}
			}
			parts[0].hLo = -mt.HSite.Lo // extends to h position 0 below
			parts[len(parts)-1].hHi = cat.Frag(core.SpeciesH, mt.HSite.Frag).Len() - mt.HSite.Lo
		}
		for _, p := range parts {
			hs := core.Site{
				Species: core.SpeciesH,
				Frag:    mt.HSite.Frag,
				Lo:      mt.HSite.Lo + p.hLo,
				Hi:      mt.HSite.Lo + p.hHi,
			}
			ms := core.Site{
				Species: core.SpeciesM,
				Frag:    p.mFrag,
				Lo:      p.mLo - bounds[p.mFrag],
				Hi:      p.mHi - bounds[p.mFrag],
			}
			sc := w.scr.Score(in.SiteWord(hs), w.oriented(in.SiteWord(ms), mt.Rev), in.Sigma)
			out.Matches = append(out.Matches, core.Match{
				HSite: hs, MSite: ms, Rev: mt.Rev, Score: sc,
			})
		}
		w.parts = parts
	}
	if err := out.Validate(in); err != nil {
		return nil, fmt.Errorf("onecsr: split solution invalid: %w", err)
	}
	return out, nil
}
