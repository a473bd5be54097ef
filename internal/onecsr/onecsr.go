// Package onecsr implements §3.3–3.4: the 1-CSR restriction (a single M
// fragment), its reduction to the Interval Selection Problem, the Theorem 3
// doubling that lifts any 1-CSR algorithm to general CSR at twice the
// ratio, and the resulting Corollary 1 algorithm — a polynomial-time
// 4-approximation for CSR built on the ratio-2 two-phase ISP algorithm.
package onecsr

import (
	"fmt"
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
// interval with profit MS(hᵢ, m(d,e)).
func placementSet(scr *align.Scratch, in *core.Instance, mIdx int) []isp.Interval {
	queries := make([]symbol.Word, 0, 2*len(in.H))
	for _, h := range in.H {
		queries = append(queries, h.Regions, h.Regions.Rev())
	}
	var out []isp.Interval
	id := 0
	scr.PlacementsEach(in.M[mIdx].Regions, queries, in.Sigma, 0, func(q int, ps []align.Placement) {
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
	return out
}

// SolveOne solves a 1-CSR instance (single M fragment) via the two-phase
// ISP algorithm, returning a consistent solution of full H-site matches
// into disjoint windows of m — ratio 2 by Berman–DasGupta.
func SolveOne(in *core.Instance) (*core.Solution, error) {
	w := newWork()
	defer w.release()
	return w.solveOne(in, true)
}

// work is the scratch state one 4-approximation threads through both
// Theorem 3 halves: one alignment arena for every placement DP, split and
// re-score, and one ISP scratch for both two-phase selections. The ISP
// scratch is recycled across calls, so its per-job tables and interval
// buffers stop growing once they have seen the largest instance.
type work struct {
	scr *align.Scratch
	isp *isp.Scratch
}

var ispPool = sync.Pool{New: func() any { return new(isp.Scratch) }}

func newWork() *work {
	return &work{scr: align.NewScratch(), isp: ispPool.Get().(*isp.Scratch)}
}

func (w *work) release() {
	w.scr.Release()
	ispPool.Put(w.isp)
}

// solveOne is SolveOne on w's scratch. With scored false the matches carry
// no score: the concatenation path re-scores every part after splitting, so
// scoring the concatenated matches would be thrown away.
func (w *work) solveOne(in *core.Instance, scored bool) (*core.Solution, error) {
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
	res := isp.TwoPhaseScratch(w.isp, placementSet(w.scr, &cin, 0), len(in.H))
	sol := &core.Solution{}
	for _, iv := range res.Selected {
		rev := iv.ID&1 == 1
		h := in.H[iv.Job].Regions
		hs := core.Site{Species: core.SpeciesH, Frag: iv.Job, Lo: 0, Hi: len(h)}
		ms := core.Site{Species: core.SpeciesM, Frag: 0, Lo: iv.Lo, Hi: iv.Hi}
		mt := core.Match{HSite: hs, MSite: ms, Rev: rev}
		if scored {
			mt.Score = w.scr.Score(h, in.SiteWord(ms).Orient(rev), cin.Sigma)
		}
		sol.Matches = append(sol.Matches, mt)
	}
	return sol, nil
}

// concatM builds the Theorem 3 companion instance (H, M′): all M fragments
// concatenated, in given order and orientation, into a single fragment.
// boundaries[i] is the start offset of fragment i in the concatenation.
func concatM(in *core.Instance) (*core.Instance, []int) {
	bounds := make([]int, len(in.M)+1)
	var w []core.Fragment
	var cat core.Fragment
	cat.Name = "M'"
	for i, f := range in.M {
		bounds[i] = len(cat.Regions)
		cat.Regions = append(cat.Regions, f.Regions...)
	}
	bounds[len(in.M)] = len(cat.Regions)
	w = append(w, cat)
	return &core.Instance{
		Name:  in.Name + "+concatM",
		H:     in.H,
		M:     w,
		Alpha: in.Alpha,
		Sigma: in.Sigma,
	}, bounds
}

// splitByBounds maps a solution of the concatenated instance back to the
// original: every match window on M′ is split at fragment boundaries, the
// alignment columns are partitioned accordingly, and each part becomes a
// match against the original fragment. Scores are re-computed per part (they
// can only grow). H fragments whose window spans several M fragments become
// chain (caterpillar) fragments, which remain consistent.
func splitByBounds(scr *align.Scratch, in *core.Instance, cat *core.Instance, bounds []int, sol *core.Solution) (*core.Solution, error) {
	out := &core.Solution{}
	fragOf := func(pos int) int {
		return sort.SearchInts(bounds, pos+1) - 1
	}
	for _, mt := range sol.Matches {
		h := cat.SiteWord(mt.HSite)
		mw := cat.SiteWord(mt.MSite)
		_, cols := scr.Align(h, mw.Orient(mt.Rev), cat.Sigma)
		if len(cols) == 0 {
			continue
		}
		// Columns are in oriented-m coordinates; map back to absolute
		// positions on M′, then split by original fragment.
		type part struct {
			mFrag    int
			hLo, hHi int
			mLo, mHi int
		}
		var parts []part
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
			sc := scr.Score(in.SiteWord(hs), in.SiteWord(ms).Orient(mt.Rev), in.Sigma)
			out.Matches = append(out.Matches, core.Match{
				HSite: hs, MSite: ms, Rev: mt.Rev, Score: sc,
			})
		}
	}
	if err := out.Validate(in); err != nil {
		return nil, fmt.Errorf("onecsr: split solution invalid: %w", err)
	}
	return out, nil
}
