package improve

import (
	"slices"

	"repro/internal/core"
	"repro/internal/isp"
)

// tpa is the TPA(B, S) subroutine of §4.2: given a batch of zones (sites
// whose space is available), it builds the interval-selection instance with
// profit p(x, m̄) = MS(x, m̄) − Cb(x, S) over every candidate fragment of
// the opposite species and every Pareto-optimal placement inside every
// zone, runs the ratio-2 two-phase algorithm, and applies the selected
// matches: each selected fragment is detached from its current matches and
// plugged in full into its window. Locked fragments never participate.
//
// Zones are clipped against the current occupation first, so freed sites
// can be passed verbatim. Returns the net score change.
//
// Zones of the two species are processed as two sequential batches (H-side
// zones first): within one batch all new matches plug an opposite-species
// fragment in full, so a batch can never place a window onto a fragment
// that simultaneously receives a full-site match.
//
// On a simulation whose solve context has fired, TPA batches return
// immediately: the simulation's gain is garbage, but the driver discards
// every in-flight result on cancellation, and the live state (which never
// carries a context) is untouched — this is what makes per-instance
// cancellation sub-round even inside one long candidate evaluation.
func (st *state) tpa(zones []core.Site) float64 {
	hz, mz := st.tpaHz[:0], st.tpaMz[:0]
	for _, z := range zones {
		if z.Species == core.SpeciesH {
			hz = append(hz, z)
		} else {
			mz = append(mz, z)
		}
	}
	st.tpaHz, st.tpaMz = hz, mz
	gain := 0.0
	if len(hz) > 0 {
		gain += st.tpaBatch(hz)
	}
	if len(mz) > 0 {
		gain += st.tpaBatch(mz)
	}
	return gain
}

// tpaZone is one clipped zone record of a TPA batch; tpaCand one candidate
// placement. Both live in per-state buffers (state.tpaZrs / state.tpaCands)
// reused across the thousands of batches one solve runs.
type tpaZone struct {
	fr   core.FragRef
	lo   int
	hi   int
	base int // ISP coordinate offset
}

type tpaCand struct {
	x      core.FragRef
	rev    bool
	zone   int // index into the zone records
	lo, hi int // window within the zone's fragment (absolute)
	score  float64
}

// tpaBatch runs one single-species TPA batch.
func (st *state) tpaBatch(zones []core.Site) float64 {
	if st.ctx != nil && st.ctx.Err() != nil {
		return 0 // canceled mid-simulation; the driver discards this gain
	}
	zrs := st.tpaZrs[:0]
	base := 0
	for _, z := range zones {
		fr := core.FragRef{Sp: z.Species, Idx: z.Frag}
		for _, g := range st.clipFree(fr, z.Lo, z.Hi) {
			zrs = append(zrs, tpaZone{fr: fr, lo: g[0], hi: g[1], base: base})
			base += g[1] - g[0] + 1
		}
	}
	st.tpaZrs = zrs
	if len(zrs) == 0 {
		return 0
	}
	// Merge duplicate zone records (two freed sites may clip to the same
	// gap).
	slices.SortFunc(zrs, func(a, b tpaZone) int {
		if a.fr.Sp != b.fr.Sp {
			return int(a.fr.Sp) - int(b.fr.Sp)
		}
		if a.fr.Idx != b.fr.Idx {
			return a.fr.Idx - b.fr.Idx
		}
		if a.lo != b.lo {
			return a.lo - b.lo
		}
		return a.hi - b.hi
	})
	dedup := zrs[:0]
	for _, z := range zrs {
		if len(dedup) > 0 {
			last := dedup[len(dedup)-1]
			if last.fr == z.fr && last.lo == z.lo && last.hi == z.hi {
				continue
			}
		}
		dedup = append(dedup, z)
	}
	zrs = dedup
	st.tpaZrs = zrs

	cands := st.tpaCands[:0]
	intervals := st.tpaIvs[:0]
	jobOf := func(fr core.FragRef) int {
		return int(fr.Sp)*max(len(st.in.H), len(st.in.M)) + fr.Idx
	}
	for zi, z := range zrs {
		sp := z.fr.Sp.Other()
		// Only pair-universe partners of the zone's fragment can place
		// positively into its freed window: a positive placement needs a
		// positive σ cell against the zone word, and the universe is the
		// positive-σ mask or the seeded restriction of it. Ascending order
		// matches an all-pairs loop.
		for _, xi32 := range st.pairs.PartnersOf(z.fr) {
			x := core.FragRef{Sp: sp, Idx: int(xi32)}
			if st.isLocked(x) {
				continue
			}
			// Cb(x) is consulted lazily, only once x shows a positive
			// placement: a fragment with no placement in any zone cannot
			// influence the outcome, so the evaluation must not read (and
			// thereby depend on) its match set.
			cb, cbKnown := 0.0, false
			for o := 0; o < 2; o++ {
				rev := o == 1
				ps := st.placements(x, rev, z.fr, z.lo, z.hi)
				if len(ps) == 0 {
					continue
				}
				if !cbKnown {
					cb, cbKnown = st.contribution(x), true
				}
				for _, p := range ps {
					profit := p.Score - cb
					if profit <= 0 {
						continue
					}
					cands = append(cands, tpaCand{
						x: x, rev: rev, zone: zi,
						lo: z.lo + p.Lo, hi: z.lo + p.Hi,
						score: p.Score,
					})
					intervals = append(intervals, isp.Interval{
						ID:     len(cands) - 1,
						Job:    jobOf(x),
						Lo:     zrs[zi].base + p.Lo,
						Hi:     zrs[zi].base + p.Hi,
						Profit: profit,
					})
				}
			}
		}
	}
	st.tpaCands, st.tpaIvs = cands, intervals
	if len(intervals) == 0 {
		return 0
	}
	res := isp.TwoPhaseScratch(&st.ispScr, intervals, 2*max(len(st.in.H), len(st.in.M)))
	gain := 0.0
	// Deterministic application order.
	slices.SortFunc(res.Selected, func(a, b isp.Interval) int { return a.ID - b.ID })
	for _, iv := range res.Selected {
		c := cands[iv.ID]
		// Detach x from its current matches.
		for _, id := range st.fragMatchIDs(c.x) {
			gain -= st.matches[id].Score
			st.removeMatch(id)
		}
		mt := st.mkMatch(c.x, c.rev, zrs[c.zone].fr, c.lo, c.hi)
		st.addMatch(mt)
		gain += mt.Score
	}
	return gain
}
