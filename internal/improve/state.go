// Package improve implements the paper's primary contribution (§4): the
// iterative-improvement approximation algorithms for CSR.
//
//   - Full_Improve   (method I1, Theorem 4, ratio 3+ε for Full CSR)
//   - Border_Improve (methods I2/I3, Theorem 5, ratio 3+ε for Border CSR)
//   - CSR_Improve    (all methods, Theorem 6, ratio 3+ε for general CSR)
//
// The algorithms maintain a consistent set of matches (1- and 2-islands
// only), repeatedly evaluating improvement attempts — plugging a fragment
// into a prepared site (I1), forming a border match between two fragment
// ends (I2), or rewiring a 2-island (I3) — each followed by TPA runs (the
// ratio-2 two-phase interval-selection algorithm) over the zones the
// preparation exposed. Iteration counts are bounded by the
// Chandra–Halldórsson scaling rule of §4.1: only gains above X/k² are
// accepted, where X is a 4-approximate score and k bounds the match count.
//
// # Evaluation fast path
//
// The driver compiles σ into a sparse matrix once per solve (score.Compile)
// and shares it — together with a site-word alignment memo and a Pareto
// placement memo, both keyed purely by instance data — across every
// simulation, TPA batch, and replay. Candidate gains are evaluated
// incrementally: each simulation records the fragments whose match data it
// read, accepted attempts bump per-fragment version counters, and a cached
// gain is reused whenever its recorded read set is untouched. The same
// version counters drive the incremental candidate-enumeration subsystem
// (internal/improve/enum), which re-enumerates only the attempt windows
// that read a dirty fragment. The recorded gains are bit-identical to fresh
// evaluation (see incremental.go for the invariants), so the incremental
// driver accepts exactly the same attempt sequence as full per-round
// re-enumeration and re-evaluation (the test-side oracle in
// oracle_test.go).
package improve

import (
	"context"
	"slices"
	"sync"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/improve/enum"
	"repro/internal/isp"
	"repro/internal/score"
	"repro/internal/symbol"
)

// versions is the live state's per-fragment version counters, bumped
// whenever a match touching a fragment is added, removed, or restricted.
// Both the gain cache and the enumeration piece cache invalidate on them.
type versions struct {
	v [2][]uint64
}

// reset zeroes every counter for in's fragments, keeping capacity.
func (vs *versions) reset(in *core.Instance) {
	for _, sp := range []core.Species{core.SpeciesH, core.SpeciesM} {
		n := in.NumFrags(sp)
		vs.v[sp] = slices.Grow(vs.v[sp][:0], n)[:n]
		clear(vs.v[sp])
	}
}

// of returns the current version of fragment fr.
func (vs *versions) of(fr core.FragRef) uint64 { return vs.v[fr.Sp][fr.Idx] }

// state is the solver's working solution: a set of live matches keyed by
// stable IDs, plus fragments locked by the improvement attempt currently
// being simulated.
//
// Storage is slice-backed throughout — match IDs are indices into a dense
// slice with a liveness mask, and the per-fragment match index is a slice
// of small ID lists. Candidates are simulated in place: mark opens an undo
// trail, every match and index edit logs its inverse while a mark is open,
// and rollback unwinds the trail, so a simulation costs what it touches
// rather than a copy of the whole state. Marks nest (I3's inner I2
// simulations are marks inside the I3 simulation's mark).
//
// One state serves a whole solve on one goroutine: it holds the compiled σ
// matrices sig/sigT, the site-alignment and placement memos, the match set,
// the trail, the attempt gain accumulator delta and the per-fragment
// version counters vers. A simulation installs a readRecorder rec and a
// cancellation probe ctx for its duration.
//
// A state is also the solve's workspace. Improve takes one from statePool,
// resets it to the instance (reset keeps every buffer, table and list it
// grew on earlier solves) and releases it when the solve ends, so a
// sequential caller's or a batch shard's next solve reuses the previous
// solve's tables. Nothing a solve returns aliases the state: its solution
// is copied out (solution), and release drops every reference to the
// instance, σ and the caller's context.
type state struct {
	in *core.Instance
	// matches is the ID-indexed match store; alive masks the live entries
	// and free recycles dead IDs (LIFO), keeping the store at roughly the
	// live match count. ID allocation is fully deterministic: a simulation
	// and its replay perform the same operation sequence from the same start
	// state (free list included; rollback restores its order), so they
	// allocate identical IDs — and a cached gain's validity implies its
	// referenced IDs are unchanged, since freeing an ID bumps the versions
	// of the fragments its match touched.
	matches []core.Match
	alive   []bool
	free    []int32
	// byFrag[sp] indexes the IDs of live matches by the fragment of species
	// sp they touch, arena-backed (fragindex.go). Lists are unsorted;
	// fragMatchIDs sorts a copy on demand.
	byFrag [2]fragIndex
	// locked lists fragments pinned by the attempt being simulated (at most
	// a few entries; linear scans beat a map here).
	locked []core.FragRef

	// pairs is the solve's candidate pair universe: the positive-σ mask, or
	// the minimizer-chained pairs under seeded candidate generation. Every
	// pair-producing loop — enumeration, I3's internal I2 scan, TPA's
	// cross-fragment sweep — iterates it instead of all nh×nm pairs.
	pairs *enum.PairSet

	sig   score.Scorer // σ prepared over the instance alphabet (dense float64 or int32-quantized)
	sigT  score.Scorer // σᵀ for M-first alignments
	memo  alignMemo
	pmemo placeMemo
	// scr is the solve's alignment scratch arena, owned by the state.
	scr *align.Scratch
	// revWords[sp][i] is fragment i of species sp reversed, materialized
	// once per solve (in the species' slab revSlab[sp]) so hot loops never
	// re-allocate it.
	revWords [2][]symbol.Word
	revSlab  [2]symbol.Word

	// delta accumulates the score change of the attempt being applied:
	// +score on add, −score on remove, the difference on restriction.
	delta float64
	// vers is the per-fragment version counters. Bumps are suppressed while
	// a mark is open: simulations never bump versions.
	vers *versions
	// bumpLog, when non-nil, collects every fragment whose version bumps
	// during an accepted-attempt replay — the lazy selection engine's dirty
	// set (selection.go). Fragments may repeat; consumers sweep
	// idempotently. Nil before the selection engine starts (Resume replays
	// log nothing).
	bumpLog []core.FragRef
	// bumpStore keeps the bump log's buffer between solves.
	bumpStore []core.FragRef
	// rec records fragment reads during a simulation (nil outside one and
	// on replays).
	rec *readRecorder
	// ctx, when non-nil, is the solve's cancellation probe: long-running
	// simulation work (the TPA batches) aborts early once it fires. Only
	// simulations carry it — replays run with it nil, so an accepted
	// attempt is always applied atomically.
	ctx context.Context

	// trail logs the inverse of every match edit made while a mark is open
	// (the index edits log on byFrag's own undo lists); marks holds the
	// open marks, innermost last.
	trail []stUndo
	marks []stMark

	// Per-state scratch buffers, reused across the thousands of accessor
	// calls one simulation makes and across every simulation the state
	// hosts. Each holds transient results valid only until the next call
	// of its producer; no producer is re-entered while a caller still
	// iterates its result (the accessors document this contract). Nested
	// simulations share them: runI3 holds none of them across its inner
	// marks.
	idsBuf   []int          // fragMatchIDs result
	sitesBuf []core.Site    // sitesOn result
	gapsBuf  [][2]int       // freeGaps result
	clipBuf  [][2]int       // clipFree result (distinct: iterates gapsBuf)
	freedBuf []core.Site    // prepare's freed-zone accumulator (caller-reset)
	zonesBuf []core.Site    // runI2's remnant-zone list
	tpaZrs   []tpaZone      // tpaBatch zone records
	tpaCands []tpaCand      // tpaBatch candidate list
	tpaIvs   []isp.Interval // tpaBatch ISP intervals
	tpaHz    []core.Site    // tpa species split, H side
	tpaMz    []core.Site    // tpa species split, M side
	ispScr   isp.Scratch    // two-phase selection scratch
	i3Cands  []candKey      // runI3's inner I2 candidates

	// The solve's pair universe, lazy selection engine and enumerator,
	// reused with the rest of the workspace. pairs points at pairSet in a
	// solve Improve runs.
	pairSet enum.PairSet
	sel     lazySel
	en      enum.Enumerator
}

// statePool holds the workspaces of finished solves (see state).
var statePool = sync.Pool{New: func() any { return new(state) }}

// reset readies st for a solve of in over the pair universe pairs,
// starting from seed, and keeps every buffer it holds. A state abandoned
// mid-simulation (a panicking solve) resets like any other: the trail,
// marks, locks and recorder are all cleared here, and the buffers that
// stay dirty, the alignment and ISP scratches, undo their last call's
// writes on their next one.
func (st *state) reset(in *core.Instance, seed *core.Solution, pairs *enum.PairSet) {
	sig := score.Prepare(in.Sigma, in.MaxSymbolID())
	st.in, st.pairs = in, pairs
	st.sig, st.sigT = sig, score.Transpose(sig)
	if st.memo == nil {
		st.memo = make(alignMemo, 256)
	}
	clear(st.memo)
	st.pmemo.reset()
	if st.scr == nil {
		st.scr = new(align.Scratch)
	}
	if st.vers == nil {
		st.vers = new(versions)
	}
	st.vers.reset(in)
	st.matches, st.alive, st.free = st.matches[:0], st.alive[:0], st.free[:0]
	st.locked, st.trail, st.marks = st.locked[:0], st.trail[:0], st.marks[:0]
	st.delta, st.bumpLog, st.rec, st.ctx = 0, nil, nil, nil
	for _, sp := range []core.Species{core.SpeciesH, core.SpeciesM} {
		frags := in.Frags(sp)
		st.byFrag[sp].reset(len(frags))
		total := 0
		for i := range frags {
			total += len(frags[i].Regions)
		}
		// Sized up front, so that filling the slab never moves the words
		// already in it.
		slab := slices.Grow(st.revSlab[sp][:0], total)
		st.revWords[sp] = slices.Grow(st.revWords[sp][:0], len(frags))[:len(frags)]
		for i := range frags {
			n := len(slab)
			slab = frags[i].Regions.AppendOrient(slab, true)
			st.revWords[sp][i] = slab[n:len(slab):len(slab)]
		}
		st.revSlab[sp] = slab
	}
	if seed != nil {
		for _, mt := range seed.Matches {
			id := len(st.matches)
			st.matches = append(st.matches, mt)
			st.alive = append(st.alive, true)
			st.index(id, &mt)
		}
	}
}

// release returns st to statePool, first dropping its references to the
// solve's instance, σ, universe and context so the pool never keeps them
// alive.
func (st *state) release() {
	st.in, st.pairs, st.sig, st.sigT = nil, nil, nil, nil
	st.rec, st.ctx, st.bumpLog = nil, nil, nil
	st.sel.pairs = nil
	st.en.Reset(false, false, nil)
	statePool.Put(st)
}

// index adds match id to both fragments' ID lists.
func (st *state) index(id int, mt *core.Match) {
	st.byFrag[core.SpeciesH].add(mt.HSite.Frag, int32(id))
	st.byFrag[core.SpeciesM].add(mt.MSite.Frag, int32(id))
}

// unindex removes match id from both fragments' ID lists.
func (st *state) unindex(id int, mt *core.Match) {
	st.byFrag[core.SpeciesH].remove(mt.HSite.Frag, int32(id))
	st.byFrag[core.SpeciesM].remove(mt.MSite.Frag, int32(id))
}

// undoKind tags a trail entry with the match edit it inverts.
type undoKind uint8

const (
	undoAppend undoKind = iota // addMatch grew the store: shrink it
	undoPop                    // addMatch reused a free ID: restore the dead entry, re-free
	undoSet                    // setMatch: restore the old match
	undoRemove                 // removeMatch: revive the ID, take it off free
)

// stUndo is one trail entry: the inverse of a match edit on ID id. old is
// the overwritten match (undoPop, undoSet).
type stUndo struct {
	kind undoKind
	id   int32
	old  core.Match
}

// stMark is an open mark: the trail and index-log lengths and the
// accumulator at the time it was opened.
type stMark struct {
	trail int
	undo  [2]int
	delta float64
}

// markHook, when set, observes every mark as it opens (opened true) and
// every rollback as it completes — the trail test's probe.
var markHook func(st *state, m int, opened bool)

// mark opens a (possibly nested) trail mark: from here until the matching
// rollback, every edit is logged, version bumps are suppressed and the
// index defers compaction.
func (st *state) mark() int {
	m := len(st.marks)
	if markHook != nil {
		markHook(st, m, true)
	}
	st.marks = append(st.marks, stMark{
		trail: len(st.trail),
		undo:  [2]int{len(st.byFrag[0].undo), len(st.byFrag[1].undo)},
		delta: st.delta,
	})
	st.byFrag[0].tracing, st.byFrag[1].tracing = true, true
	return m
}

// rollback restores st exactly — matches, liveness, free-list order, index
// layout and delta — to its state when mark m was opened, closing m and
// every mark nested inside it.
func (st *state) rollback(m int) {
	mk := st.marks[m]
	for k := len(st.trail) - 1; k >= mk.trail; k-- {
		u := &st.trail[k]
		switch u.kind {
		case undoAppend:
			st.matches, st.alive = st.matches[:u.id], st.alive[:u.id]
		case undoPop:
			st.matches[u.id], st.alive[u.id] = u.old, false
			st.free = append(st.free, u.id)
		case undoSet:
			st.matches[u.id] = u.old
		case undoRemove:
			st.alive[u.id] = true
			st.free = st.free[:len(st.free)-1]
		}
	}
	st.trail = st.trail[:mk.trail]
	st.byFrag[0].rollback(mk.undo[0])
	st.byFrag[1].rollback(mk.undo[1])
	st.delta = mk.delta
	st.marks = st.marks[:m]
	if m == 0 {
		st.byFrag[0].tracing, st.byFrag[1].tracing = false, false
	}
	if markHook != nil {
		markHook(st, m, false)
	}
}

// tracing reports whether a mark is open.
func (st *state) tracing() bool { return len(st.marks) > 0 }

// note records a read of fragment fr's match data during a simulation.
func (st *state) note(fr core.FragRef) {
	if st.rec != nil {
		st.rec.note(fr)
	}
}

// bump advances the version of both fragments a match touches (a no-op
// under a mark), logging them when a bump log is attached.
func (st *state) bump(mt *core.Match) {
	if st.tracing() {
		return
	}
	st.vers.v[core.SpeciesH][mt.HSite.Frag]++
	st.vers.v[core.SpeciesM][mt.MSite.Frag]++
	if st.bumpLog != nil {
		st.bumpLog = append(st.bumpLog,
			core.FragRef{Sp: core.SpeciesH, Idx: mt.HSite.Frag},
			core.FragRef{Sp: core.SpeciesM, Idx: mt.MSite.Frag})
	}
}

// isLive reports whether match id exists in this state.
func (st *state) isLive(id int) bool {
	return id >= 0 && id < len(st.alive) && st.alive[id]
}

// lock pins fr for the duration of an attempt simulation.
func (st *state) lock(fr core.FragRef) { st.locked = append(st.locked, fr) }

// unlock releases the most recent lock on fr.
func (st *state) unlock(fr core.FragRef) {
	for i := len(st.locked) - 1; i >= 0; i-- {
		if st.locked[i] == fr {
			st.locked = append(st.locked[:i], st.locked[i+1:]...)
			return
		}
	}
}

// isLocked reports whether fr is pinned by the running attempt.
func (st *state) isLocked(fr core.FragRef) bool {
	for _, l := range st.locked {
		if l == fr {
			return true
		}
	}
	return false
}

// score sums in ascending-ID order so that a simulation and its replay
// (which allocate identical IDs) produce bit-identical totals.
func (st *state) score() float64 {
	t := 0.0
	for id, ok := range st.alive {
		if ok {
			t += st.matches[id].Score
		}
	}
	return t
}

// solution copies the live matches out into a new solution.
func (st *state) solution() *core.Solution {
	n := 0
	for _, ok := range st.alive {
		if ok {
			n++
		}
	}
	sol := &core.Solution{Matches: make([]core.Match, 0, n)}
	for id, ok := range st.alive {
		if ok {
			sol.Matches = append(sol.Matches, st.matches[id])
		}
	}
	return sol
}

func (st *state) addMatch(mt core.Match) int {
	var id int
	if n := len(st.free); n > 0 {
		id = int(st.free[n-1])
		if st.tracing() {
			st.trail = append(st.trail, stUndo{kind: undoPop, id: int32(id), old: st.matches[id]})
		}
		st.free = st.free[:n-1]
		st.matches[id] = mt
		st.alive[id] = true
	} else {
		id = len(st.matches)
		if st.tracing() {
			st.trail = append(st.trail, stUndo{kind: undoAppend, id: int32(id)})
		}
		st.matches = append(st.matches, mt)
		st.alive = append(st.alive, true)
	}
	st.index(id, &mt)
	st.delta += mt.Score
	st.bump(&mt)
	return id
}

// setMatch replaces match id in place (site restriction), keeping its ID.
func (st *state) setMatch(id int, mt core.Match) {
	old := st.matches[id]
	if st.tracing() {
		st.trail = append(st.trail, stUndo{kind: undoSet, id: int32(id), old: old})
	}
	st.matches[id] = mt
	st.delta += mt.Score - old.Score
	st.bump(&mt)
}

// fragMatchIDs returns the IDs of matches touching fragment fr, sorted by
// site position (ties by ID — a unique total order, so any sort yields the
// same sequence). The result lives in a per-state buffer, valid until the
// next call: callers may mutate match state while iterating it, but never
// re-enter fragMatchIDs mid-iteration. Lists are a handful of entries, so
// an allocation-free insertion sort beats the reflective sort.Slice that
// used to dominate this accessor.
func (st *state) fragMatchIDs(fr core.FragRef) []int {
	st.note(fr)
	dst := st.idsBuf[:0]
	for _, v := range st.byFrag[fr.Sp].list(fr.Idx) {
		dst = append(dst, int(v))
	}
	key := func(id int) int { return st.matches[id].Side(fr.Sp).Lo }
	for i := 1; i < len(dst); i++ {
		id, lo := dst[i], key(dst[i])
		j := i - 1
		for j >= 0 && (key(dst[j]) > lo || (key(dst[j]) == lo && dst[j] > id)) {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = id
	}
	st.idsBuf = dst
	return dst
}

func (st *state) degree(fr core.FragRef) int {
	st.note(fr)
	return int(st.byFrag[fr.Sp].ln[fr.Idx])
}

// contribution is Cb(f, S): the total score of matches touching fr.
// Summation follows sorted match IDs for bit-stable float totals.
func (st *state) contribution(fr core.FragRef) float64 {
	t := 0.0
	for _, id := range st.fragMatchIDs(fr) {
		t += st.matches[id].Score
	}
	return t
}

// chainMatchIDs returns fr's matches whose both fragments participate in
// ≥ 2 matches — the 2-island links.
func (st *state) chainMatchIDs(fr core.FragRef) []int {
	var out []int
	for _, id := range st.fragMatchIDs(fr) {
		mt := st.matches[id]
		h := core.FragRef{Sp: core.SpeciesH, Idx: mt.HSite.Frag}
		m := core.FragRef{Sp: core.SpeciesM, Idx: mt.MSite.Frag}
		if st.degree(h) >= 2 && st.degree(m) >= 2 {
			out = append(out, id)
		}
	}
	return out
}

// sitesOn returns the sites occupied on fragment fr, sorted. The result is
// a per-state buffer, valid until the next call (enumView.Sites hands it to
// the enumeration subsystem, whose Source interface documents the same
// transience).
func (st *state) sitesOn(fr core.FragRef) []core.Site {
	ids := st.fragMatchIDs(fr)
	out := st.sitesBuf[:0]
	for _, id := range ids {
		out = append(out, st.matches[id].Side(fr.Sp))
	}
	st.sitesBuf = out
	return out
}

// freeGaps returns the maximal unoccupied intervals of fragment fr, in a
// per-state buffer valid until the next call.
func (st *state) freeGaps(fr core.FragRef) [][2]int {
	n := st.in.Frag(fr.Sp, fr.Idx).Len()
	out := st.gapsBuf[:0]
	pos := 0
	for _, s := range st.sitesOn(fr) {
		if s.Lo > pos {
			out = append(out, [2]int{pos, s.Lo})
		}
		pos = s.Hi
	}
	if pos < n {
		out = append(out, [2]int{pos, n})
	}
	st.gapsBuf = out
	return out
}

// clipFree intersects [lo, hi) on fr with the free space, returning the
// free sub-intervals in a per-state buffer (distinct from freeGaps's, which
// it iterates) valid until the next call.
func (st *state) clipFree(fr core.FragRef, lo, hi int) [][2]int {
	out := st.clipBuf[:0]
	for _, g := range st.freeGaps(fr) {
		a, b := max(g[0], lo), min(g[1], hi)
		if a < b {
			out = append(out, [2]int{a, b})
		}
	}
	st.clipBuf = out
	return out
}

// sigmaFor returns the compiled scorer whose first argument is a word of
// species sp — σ for H, the transposed σ for M.
func (st *state) sigmaFor(sp core.Species) score.Scorer {
	if sp == core.SpeciesH {
		return st.sig
	}
	return st.sigT
}

// placement aliases align.Placement for the placeMemo declarations.
type placement = align.Placement

// placements returns the Pareto fit-placement frontier of fragment x at
// orientation rev inside the window [lo, hi) of fragment z, memoized for
// the lifetime of the solve. The returned slice is shared: callers must not
// modify it.
func (st *state) placements(x core.FragRef, rev bool, z core.FragRef, lo, hi int) []placement {
	k := mkPlaceKey(x, rev, z, lo, hi)
	if v, ok := st.pmemo.get(k); ok {
		return v
	}
	zoneWord := st.in.Frag(z.Sp, z.Idx).Regions[lo:hi]
	return st.pmemo.put(k, st.scr.Placements(st.fragWord(x, rev), zoneWord, st.sigmaFor(x.Sp), 0))
}

// fragWord returns the full region word of fragment fr at the given
// orientation without allocating.
func (st *state) fragWord(fr core.FragRef, rev bool) symbol.Word {
	if rev {
		return st.revWords[fr.Sp][fr.Idx]
	}
	return st.in.Frag(fr.Sp, fr.Idx).Regions
}

// window returns the window [lo, hi) of fragment fr, reversed when rev,
// without allocating: a reversed window is a slice of the reversed
// fragment.
func (st *state) window(fr core.FragRef, lo, hi int, rev bool) symbol.Word {
	if rev {
		n := st.in.Frag(fr.Sp, fr.Idx).Len()
		return st.revWords[fr.Sp][fr.Idx][n-hi : n-lo]
	}
	return st.in.Frag(fr.Sp, fr.Idx).Regions[lo:hi]
}

// siteScore returns MS of the H-site h against the M-site m at orientation
// rev, memoized for the lifetime of the solve (the score depends only on
// the instance words and σ).
func (st *state) siteScore(h, m core.Site, rev bool) float64 {
	k := mkAlignKey(h, m, rev)
	if v, ok := st.memo[k]; ok {
		return v
	}
	mw := st.window(core.FragRef{Sp: core.SpeciesM, Idx: m.Frag}, m.Lo, m.Hi, rev)
	v := st.scr.Score(st.in.SiteWord(h), mw, st.sig)
	st.memo[k] = v
	return v
}

// mkMatch builds a match pairing the full fragment x against the window
// [lo, hi) of fragment z of the other species, with x oriented by rev.
// The cached score is recomputed canonically.
func (st *state) mkMatch(x core.FragRef, rev bool, z core.FragRef, lo, hi int) core.Match {
	xSite := core.Site{Species: x.Sp, Frag: x.Idx, Lo: 0, Hi: st.in.Frag(x.Sp, x.Idx).Len()}
	zSite := core.Site{Species: z.Sp, Frag: z.Idx, Lo: lo, Hi: hi}
	var mt core.Match
	if x.Sp == core.SpeciesH {
		mt = core.Match{HSite: xSite, MSite: zSite, Rev: rev}
	} else {
		mt = core.Match{HSite: zSite, MSite: xSite, Rev: rev}
	}
	mt.Score = st.siteScore(mt.HSite, mt.MSite, mt.Rev)
	return mt
}

// removeMatch deletes match id.
func (st *state) removeMatch(id int) {
	mt := &st.matches[id]
	if st.tracing() {
		st.trail = append(st.trail, stUndo{kind: undoRemove, id: int32(id)})
	}
	st.alive[id] = false
	st.free = append(st.free, int32(id))
	st.unindex(id, mt)
	st.delta -= mt.Score
	st.bump(mt)
}

// otherSite returns the site of match mt on the species opposite to sp.
func otherSite(mt core.Match, sp core.Species) core.Site {
	return mt.Side(sp.Other())
}

// prepare makes the window [lo, hi) on fragment fr usable for a new match,
// following the §4.2/§4.3 preparation rules:
//
//   - if fr is the multiple fragment of a 2-island, the island is broken
//     first (its chain matches are removed);
//   - a satellite match — the partner plugged in with a full site — that
//     overlaps the window is restricted on fr's side to the part outside
//     the window and re-scored (the paper's Mult(S) rule; the satellite
//     keeps its full site, so the island stays a caterpillar);
//   - any other overlapping match (the partner side is not full, so
//     restricting fr's side would leave a match with no full or border
//     structure) is removed outright, mirroring the paper's Simp(S)
//     "detach" rule.
//
// It appends the partner sites freed by removals — the TPA zones of the
// calling improvement method — onto freed (callers pass a reusable buffer,
// typically st.freedBuf[:0], and may chain calls). Preparing a hidden
// window is the caller's responsibility to avoid; windows bounded by
// existing site endpoints are never hidden.
func (st *state) prepare(freed []core.Site, fr core.FragRef, lo, hi int) []core.Site {
	for _, id := range st.fragMatchIDs(fr) {
		mt := st.matches[id]
		s := mt.Side(fr.Sp)
		partner := otherSite(mt, fr.Sp)
		partnerFull := st.in.Kind(partner) == core.KindFull
		myFull := st.in.Kind(s) == core.KindFull
		if !partnerFull && !myFull {
			// Border match: remove regardless of overlap — the general
			// form of the paper's "break the 2-island first" rule. Border
			// claims may only ever exist at a fragment's extremes, and a
			// fragment being rewired must shed them so the new link is its
			// only claim on that end structure.
			st.removeMatch(id)
			freed = append(freed, partner)
			continue
		}
		if s.Hi <= lo || hi <= s.Lo {
			continue // disjoint from the window
		}
		if !partnerFull || (lo <= s.Lo && s.Hi <= hi) {
			st.removeMatch(id)
			freed = append(freed, partner)
			continue
		}
		// Partial overlap with a plugged-in satellite: restrict fr's side
		// to the part outside the window. The window is never strictly
		// inside the site (callers use site-boundary windows), so the
		// remainder is one interval.
		ns := s
		if s.Lo < lo {
			ns.Hi = lo
		} else {
			ns.Lo = hi
		}
		if ns.Lo >= ns.Hi {
			st.removeMatch(id)
			freed = append(freed, partner)
			continue
		}
		mt.SetSide(fr.Sp, ns)
		mt.Score = st.siteScore(mt.HSite, mt.MSite, mt.Rev)
		if mt.Score <= 0 {
			st.removeMatch(id)
			freed = append(freed, partner)
			continue
		}
		st.setMatch(id, mt)
	}
	return freed
}
