package improve

import (
	"context"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/improve/enum"
)

// candKey is the structural identity of an attempt: the comparable cache
// key of the incremental driver, produced by the enumeration subsystem.
// Identical keys denote identical attempt behavior; attempts are simulated
// in place under a trail mark during evaluation (state.simulate) and
// replayed on the live state when accepted, dispatched by runCand —
// candidate lists carry no per-candidate closures.
type candKey = enum.Cand

// simulate evaluates candidate k in place on the live state and unwinds
// every edit before returning the gain. The read recorder and cancellation
// probe are installed for the call only, and the accumulator starts from
// zero, so the gain is the same float addition sequence as the replay that
// may follow. A simulation cut short (a cancelled TPA batch, an early
// return) unwinds just the same.
func (st *state) simulate(k candKey, rec *readRecorder, ctx context.Context) float64 {
	st.rec, st.ctx = rec, ctx
	m := st.mark()
	st.delta = 0
	gain := runCand(st, k)
	st.rollback(m)
	st.rec, st.ctx = nil, nil
	return gain
}

// raisesTotal reports whether applying k to st strictly raises the total
// summed in fixed ascending-ID order (state.score), which it finds by
// applying k under a mark and rolling it back. This, not the delta-tracked
// gain, is what acceptance requires: a gain that only re-rounds the total
// could otherwise be accepted forever at Eps = 0, while a strictly rising
// total can never revisit a state.
func (st *state) raisesTotal(k candKey, before float64) bool {
	m := st.mark()
	st.delta = 0
	runCand(st, k)
	after := st.score()
	st.rollback(m)
	return after > before
}

// runCand applies the attempt identified by k and returns the gain.
func runCand(st *state, k candKey) float64 {
	switch k.Kind {
	case enum.KindI1:
		return runI1(st, k)
	case enum.KindI2:
		return runI2(st, k)
	default:
		return runI3(st, k)
	}
}

// runI1 is the Full CSR improvement method I1(f, ḡ, ĝ) of §4.2: prepare
// fragment f (detaching it) and the window ĝ = [wLo, wHi) on fragment g;
// plug f into its best placement ḡ inside the window; run TPA on the
// remnants ĝ − ḡ and on the partner sites freed by the preparation.
func runI1(st *state, k candKey) float64 {
	f, g, wLo, wHi := k.F, k.G, k.A1, k.A2
	start := st.delta
	st.lock(f)
	defer st.unlock(f)

	// Prepare f: detach it from everything (its full site is plugged in).
	// Freed partner zones are not refilled here — Fig. 9 runs TPA only on
	// the target-side zones.
	for _, id := range st.fragMatchIDs(f) {
		st.removeMatch(id)
	}
	// Prepare the target window (freed zones accumulate in the state's
	// reusable buffer; consumed by the TPA calls below).
	st.freedBuf = st.prepare(st.freedBuf[:0], g, wLo, wHi)
	freed := st.freedBuf

	// Best placement of f inside the prepared window (the last entry of
	// the Pareto frontier is the best-scoring one).
	bestScore, bestRev := 0.0, false
	var best align.Placement
	for o := 0; o < 2; o++ {
		rev := o == 1
		if ps := st.placements(f, rev, g, wLo, wHi); len(ps) > 0 {
			if p := ps[len(ps)-1]; p.Score > bestScore {
				best, bestScore, bestRev = p, p.Score, rev
			}
		}
	}
	if bestScore <= 0 {
		return st.delta - start // preparation-only "attempt" (never accepted)
	}
	mt := st.mkMatch(f, bestRev, g, wLo+best.Lo, wLo+best.Hi)
	st.addMatch(mt)

	// TPA on the window remnants, then on freed partner sites.
	st.tpa([]core.Site{
		{Species: g.Sp, Frag: g.Idx, Lo: wLo, Hi: wLo + best.Lo},
		{Species: g.Sp, Frag: g.Idx, Lo: wLo + best.Hi, Hi: wHi},
	})
	st.tpa(freed)
	return st.delta - start
}

// end identifies a fragment end for border matches.
type end int

const (
	leftEnd  end = enum.LeftEnd
	rightEnd end = enum.RightEnd
)

func (e end) String() string {
	if e == leftEnd {
		return "L"
	}
	return "R"
}

// runI2 is the Border CSR improvement method I2 of §4.3/§4.4: prepare end
// windows on f and g (breaking their 2-islands), form the border match
// joining fEnd of f to gEnd of g, then run TPA on the inner remnants and
// freed partner sites. The relative orientation is forced by the end
// combination (same ends ⇒ reversed), mirroring the Fig. 8 rule. The key's
// depths (A2, B2) give how deep the prepared windows reach into each
// fragment from the chosen end.
func runI2(st *state, k candKey) float64 {
	f, g := k.F, k.G
	fe, fw := end(k.A1), k.A2
	ge, gw := end(k.B1), k.B2
	start := st.delta
	st.lock(f)
	st.lock(g)
	defer st.unlock(f)
	defer st.unlock(g)

	nf := st.in.Frag(f.Sp, f.Idx).Len()
	ng := st.in.Frag(g.Sp, g.Idx).Len()
	fLo, fHi := windowAt(fe, fw, nf)
	gLo, gHi := windowAt(ge, gw, ng)

	freed := st.prepare(st.freedBuf[:0], f, fLo, fHi)
	freed = st.prepare(freed, g, gLo, gHi)
	// Multi-edge guard: a conjecture pair merges two matches between the
	// same fragments into one, so any surviving f–g match must yield to
	// the new link. Its sites become zones.
	for _, id := range st.fragMatchIDs(f) {
		mt := st.matches[id]
		if mt.Side(g.Sp).Frag == g.Idx {
			st.removeMatch(id)
			freed = append(freed, mt.HSite, mt.MSite)
		}
	}
	st.freedBuf = freed

	// Border alignment: orient g's window relative to f per the end rule,
	// then claim sites from the outermost scoring columns to the fragment
	// ends.
	rev := fe == ge
	fWord := st.in.Frag(f.Sp, f.Idx).Regions[fLo:fHi]
	gOri := st.window(g, gLo, gHi, rev)
	sigma := st.sigmaFor(f.Sp)
	sc, cols := st.scr.Align(fWord, gOri, sigma)
	if sc <= 0 || len(cols) == 0 {
		return st.delta - start
	}
	fSpanLo, fSpanHi := fLo+cols[0].I, fLo+cols[len(cols)-1].I+1
	gj0, gj1 := cols[0].J, cols[len(cols)-1].J
	if rev {
		gj0, gj1 = (gHi-gLo)-1-gj1, (gHi-gLo)-1-gj0
	}
	gSpanLo, gSpanHi := gLo+gj0, gLo+gj1+1
	// Extend claims to the fragment ends (the chain link must be
	// outermost; dangling tails are junk no other match may use).
	fSite := claimToEnd(fe, fSpanLo, fSpanHi, nf)
	gSite := claimToEnd(ge, gSpanLo, gSpanHi, ng)

	var mt core.Match
	fs := core.Site{Species: f.Sp, Frag: f.Idx, Lo: fSite[0], Hi: fSite[1]}
	gs := core.Site{Species: g.Sp, Frag: g.Idx, Lo: gSite[0], Hi: gSite[1]}
	if f.Sp == core.SpeciesH {
		mt = core.Match{HSite: fs, MSite: gs, Rev: rev}
	} else {
		mt = core.Match{HSite: gs, MSite: fs, Rev: rev}
	}
	mt.Score = st.siteScore(mt.HSite, mt.MSite, mt.Rev)
	st.addMatch(mt)

	// TPA on the inner remnants (window minus claimed site) and the freed
	// partner sites.
	zones := st.zonesBuf[:0]
	defer func() { st.zonesBuf = zones[:0] }()
	if fe == rightEnd && fSite[0] > fLo {
		zones = append(zones, core.Site{Species: f.Sp, Frag: f.Idx, Lo: fLo, Hi: fSite[0]})
	}
	if fe == leftEnd && fSite[1] < fHi {
		zones = append(zones, core.Site{Species: f.Sp, Frag: f.Idx, Lo: fSite[1], Hi: fHi})
	}
	if ge == rightEnd && gSite[0] > gLo {
		zones = append(zones, core.Site{Species: g.Sp, Frag: g.Idx, Lo: gLo, Hi: gSite[0]})
	}
	if ge == leftEnd && gSite[1] < gHi {
		zones = append(zones, core.Site{Species: g.Sp, Frag: g.Idx, Lo: gSite[1], Hi: gHi})
	}
	st.tpa(zones)
	st.tpa(freed)
	return st.delta - start
}

func windowAt(e end, depth, n int) (int, int) {
	if depth > n {
		depth = n
	}
	if e == leftEnd {
		return 0, depth
	}
	return n - depth, n
}

func claimToEnd(e end, spanLo, spanHi, n int) [2]int {
	if e == leftEnd {
		return [2]int{0, spanHi}
	}
	return [2]int{spanLo, n}
}

// runI3 is the 2-island rewiring method I3 (§4.3): break the chain match
// joining f and g, then greedily run the best I2 attempt for f (excluding
// g as partner) followed by the best I2 attempt for g (excluding f). The
// compound gain is evaluated atomically, capturing the cases where
// breaking the island only pays off when both ends are re-linked.
func runI3(st *state, k candKey) float64 {
	f, g, chainID := k.F, k.G, k.A1
	start := st.delta
	// The existence of the chain match depends on f's and g's match sets;
	// record the reads even on the early-out path.
	st.note(f)
	st.note(g)
	if !st.isLive(chainID) {
		return 0
	}
	st.removeMatch(chainID)
	// The inner candidates run I2 only, so no nested runI3 reuses the
	// buffer while this one iterates it.
	buf := st.i3Cands
	for _, x := range [2]core.FragRef{f, g} {
		exclude := g
		if x == g {
			exclude = f
		}
		buf = i2CandsFor(st, x, exclude, buf[:0])
		bestGain, bestIdx := 0.0, -1
		for i := range buf {
			// A nested mark: the inner attempt starts from this attempt's
			// accumulator, exactly as the chosen one's application below.
			m := st.mark()
			gain := runCand(st, buf[i])
			st.rollback(m)
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx >= 0 {
			runCand(st, buf[bestIdx])
		}
	}
	st.i3Cands = buf[:0]
	return st.delta - start
}

// i2CandsFor enumerates the I2 candidates pairing fragment only against
// its pair-universe partners except exclude, on the current (simulation)
// state. End depths are computed on the fly — the reads go through st and
// are thus recorded by the simulation's readRecorder, exactly like the rest
// of the attempt's work. AppendI2's restricted form computes them for only
// and its non-excluded partners and nothing else, so the enclosing I3 gain
// depends on the fragments that can re-link with only, not on every
// fragment of the other species.
func i2CandsFor(st *state, only, exclude core.FragRef, dst []candKey) []candKey {
	return enum.AppendI2(dst, st.pairs, only, exclude,
		func(fr core.FragRef) [2]enum.Depths { return stateEndDepths(st, fr) })
}

// stateEndDepths computes both end-depth sets of fr against st's current
// occupation.
func stateEndDepths(st *state, fr core.FragRef) [2]enum.Depths {
	n := st.in.Frag(fr.Sp, fr.Idx).Len()
	sites := st.sitesOn(fr)
	return [2]enum.Depths{
		enum.EndDepthsAt(sites, n, enum.LeftEnd),
		enum.EndDepthsAt(sites, n, enum.RightEnd),
	}
}
