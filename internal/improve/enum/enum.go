// Package enum is the candidate-enumeration subsystem of the CSR
// improvement driver: it generates the I1/I2/I3 attempt candidates of §4.2–
// §4.4 for the current solver state, incrementally.
//
// Full enumeration is O(F²·W) per improvement round — every fragment pair
// times every preparation window — and between two rounds almost all of it
// is unchanged: an accepted attempt touches a handful of fragments, and only
// the candidate windows that read one of those fragments can differ. The
// Enumerator therefore caches enumeration per *piece* — the I1 target
// windows of one fragment, the I2 end depths of one fragment, the I3 chain
// links of one fragment — together with the read set (fragment → version)
// that produced it, exactly the invalidation scheme the driver's gain cache
// uses for simulations (see improve/incremental.go). Each round it
// re-enumerates only the dirty pieces, so the merged candidate list is
// always element-for-element identical to enumerating from scratch (the
// improve package checks this after every accepted attempt of real solves,
// TestIncrementalEnumMatchesFull).
//
// Two consumption modes share the piece cache. Repair reports which pieces
// actually changed value, so the lazy best-first selection engine
// (improve/selection.go) can patch just the affected candidate blocks of its
// heap and leave everything else — cached gains included — untouched.
// Candidates rebuilds the full merged candidate list in canonical order —
// the input of the improve package's full re-evaluation test oracle.
package enum

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
)

// Kind labels the improvement method that generates a candidate.
type Kind uint8

// Candidate kinds: the paper's improvement methods I1 (plug a fragment into
// a prepared window), I2 (form a border match between two fragment ends),
// and I3 (rewire a 2-island).
const (
	KindI1 Kind = 1 + iota
	KindI2
	KindI3
)

// String returns the method label "I1", "I2" or "I3".
func (k Kind) String() string {
	switch k {
	case KindI1:
		return "I1"
	case KindI2:
		return "I2"
	default:
		return "I3"
	}
}

// Cand is the structural identity of one improvement attempt: a flat
// comparable struct, usable directly as a cache key.
//
//	I1: A1, A2 = the window [A1, A2) on g.
//	I2: A1, A2 = f's end and depth; B1, B2 = g's end and depth.
//	I3: A1 = the chain match ID.
type Cand struct {
	Kind Kind
	F, G core.FragRef
	A1   int
	A2   int
	B1   int
	B2   int
}

// String renders the candidate for error messages (cold path only).
func (c Cand) String() string {
	switch c.Kind {
	case KindI1:
		return fmt.Sprintf("I1(%v→%v[%d,%d))", c.F, c.G, c.A1, c.A2)
	case KindI2:
		return fmt.Sprintf("I2(%v.%s:%d↔%v.%s:%d)", c.F, endLabel(c.A1), c.A2, c.G, endLabel(c.B1), c.B2)
	default:
		return fmt.Sprintf("I3(%v~%v#%d)", c.F, c.G, c.A1)
	}
}

// Less is the canonical total order on candidates, the driver's gain
// tie-break: among equal-gain attempts the Less-least candidate is accepted.
// It is consistent with the canonical enumeration order Candidates emits —
// I1 before I2 before I3; I1 by (species of F, F, G, window lo, window hi);
// I2 by (F, G, F's end, G's end, then depths, which AppendI2 emits in
// increasing order) — so for I1/I2 ties it selects exactly the first
// occurrence in the enumerated list. I3 candidates within one H fragment
// are ordered by chain-match ID (the only state-independent identity they
// carry; the enumerated list orders them by site position, which can differ
// — both selection engines therefore break I3 ties through Less, never
// through list position).
func Less(a, b Cand) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.F != b.F {
		if a.F.Sp != b.F.Sp {
			return a.F.Sp < b.F.Sp
		}
		return a.F.Idx < b.F.Idx
	}
	if a.G.Idx != b.G.Idx {
		return a.G.Idx < b.G.Idx
	}
	if a.Kind == KindI2 {
		// The enumeration nests ends outside depths: (fe, ge, fw, gw).
		if a.A1 != b.A1 {
			return a.A1 < b.A1
		}
		if a.B1 != b.B1 {
			return a.B1 < b.B1
		}
		if a.A2 != b.A2 {
			return a.A2 < b.A2
		}
		return a.B2 < b.B2
	}
	if a.A1 != b.A1 {
		return a.A1 < b.A1
	}
	if a.A2 != b.A2 {
		return a.A2 < b.A2
	}
	if a.B1 != b.B1 {
		return a.B1 < b.B1
	}
	return a.B2 < b.B2
}

// Fragment ends for I2 candidates.
const (
	LeftEnd  = 0
	RightEnd = 1
)

func endLabel(e int) string {
	if e == LeftEnd {
		return "L"
	}
	return "R"
}

// Chain is one I3 rewiring site: the chain match ID joining an H fragment
// to its M partner G.
type Chain struct {
	ID int
	G  core.FragRef
}

// Read is one recorded fragment read: the fragment and its live version at
// read time.
type Read struct {
	Fr  core.FragRef
	Ver uint64
}

// Reads is a recorded read set: every fragment a piece's enumeration
// consulted, with the live version at read time, in first-read order. A
// cached piece is reusable iff every recorded fragment still has its
// recorded version. Read sets are a handful of entries, so a scanned slice
// the piece keeps from one refresh to the next beats a map per refresh.
type Reads []Read

// Note records a read of fr at version v (first read wins, matching the
// recording rule of the driver's simulation recorder).
func (r *Reads) Note(fr core.FragRef, v uint64) {
	for _, e := range *r {
		if e.Fr == fr {
			return
		}
	}
	*r = append(*r, Read{Fr: fr, Ver: v})
}

// Source is the read-only view of the solver state the Enumerator consumes.
// Implementations must record every fragment a query reads into the passed
// Reads set. The driver enumerates strictly between mutations.
type Source interface {
	// NumFrags returns the fragment count of one species (fixed per solve).
	NumFrags(sp core.Species) int
	// FragLen returns the region count of a fragment (fixed per solve).
	FragLen(fr core.FragRef) int
	// Version returns the live version of a fragment's match data.
	Version(fr core.FragRef) uint64
	// Sites returns the occupied sites on fr, sorted by position. The slice
	// is transient: valid only until the next call, so the Enumerator never
	// keeps it (AppendWindows and EndDepthsAt copy what they need).
	Sites(fr core.FragRef, r *Reads) []core.Site
	// Chains appends fr's 2-island chain links, in site order, to dst.
	Chains(dst []Chain, fr core.FragRef, r *Reads) []Chain
}

// Depths holds the candidate I2 window depths at one fragment end: the free
// depth up to the outermost match (when it exists and is partial) and the
// full fragment length. Value type, so cached pieces hold no per-end
// allocations.
type Depths struct {
	d [2]int
	n int
}

// Len returns the number of candidate depths.
func (d Depths) Len() int { return d.n }

// At returns the i-th candidate depth.
func (d Depths) At(i int) int { return d.d[i] }

// EndDepthsAt computes the candidate window depths at one end of a fragment
// of length n whose occupied sites (sorted) are given: the free depth when
// positive and partial, then the full length.
func EndDepthsAt(sites []core.Site, n int, e int) Depths {
	free := n
	if len(sites) > 0 {
		if e == LeftEnd {
			free = sites[0].Lo
		} else {
			free = n - sites[len(sites)-1].Hi
		}
	}
	if free > 0 && free < n {
		return Depths{d: [2]int{free, n}, n: 2}
	}
	return Depths{d: [2]int{n}, n: 1}
}

// AppendWindows appends to dst the I1 target windows of a fragment of
// length n with the given occupied sites (sorted): its maximal free gaps,
// each gap extended across one neighbouring site per side, and the whole
// fragment — sorted and deduplicated. All windows have endpoints on site
// boundaries, hence are never hidden.
func AppendWindows(dst [][2]int, sites []core.Site, n int) [][2]int {
	base := len(dst)
	wins := append(dst, [2]int{0, n})
	pos := 0
	addGap := func(lo, hi int) {
		wins = append(wins, [2]int{lo, hi})
		// Extend across the neighbouring sites, when they exist.
		for _, s := range sites {
			if s.Hi == lo {
				wins = append(wins, [2]int{s.Lo, hi})
			}
			if s.Lo == hi {
				wins = append(wins, [2]int{lo, s.Hi})
			}
		}
	}
	for _, s := range sites {
		if s.Lo > pos {
			addGap(pos, s.Lo)
		}
		pos = s.Hi
	}
	if pos < n {
		addGap(pos, n)
	}
	out := wins[:base]
	for _, w := range wins[base:] {
		if w[0] < w[1] {
			out = append(out, w)
		}
	}
	slices.SortFunc(out[base:], func(a, b [2]int) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Compare(a[1], b[1])
	})
	dedup := out[:base]
	for _, w := range out[base:] {
		if len(dedup) > base && dedup[len(dedup)-1] == w {
			continue
		}
		dedup = append(dedup, w)
	}
	return dedup
}

// AppendI2 appends the I2 candidates in canonical (fi, gi, fe, ge, fw, gw)
// order, restricted to the pair universe. only restricts one species to a
// single fragment and exclude drops one fragment from pairing (Idx < 0
// sentinels disable either filter); depths supplies the per-end window
// depths of a fragment — the Enumerator passes its cached pieces, the I3
// rewiring path computes them on the fly against its simulation state, so
// every fragment depths is called for lands in that simulation's read set.
//
// The unrestricted form (only.Idx < 0) iterates every H fragment fi
// ascending, then fi's M partners ascending, calling depths once per H
// fragment and once per pair for its M partner: the classic nested (fi, gi)
// loops restricted to the universe. The restricted forms visit
// only the pairs that can emit a candidate: they call depths once for only,
// then walk only's partners ascending (PartnersOf: the M partners of an H
// only, the H partners of an M only), calling depths once for each partner
// that is not exclude — never for a fragment that cannot pair with only.
// An excluded only emits nothing and calls depths for nothing. Both forms
// emit pairs in ascending (fi, gi) order, so a restricted list is the
// unrestricted one filtered to only's pairs.
func AppendI2(dst []Cand, ps *PairSet, only, exclude core.FragRef, depths func(core.FragRef) [2]Depths) []Cand {
	isExcluded := func(fr core.FragRef) bool { return exclude.Idx >= 0 && exclude == fr }
	if only.Idx >= 0 {
		if isExcluded(only) {
			return dst
		}
		d := depths(only)
		osp := only.Sp.Other()
		for _, pi := range ps.PartnersOf(only) {
			p := core.FragRef{Sp: osp, Idx: int(pi)}
			if isExcluded(p) {
				continue
			}
			if only.Sp == core.SpeciesH {
				dst = appendPair(dst, only, p, d, depths(p))
			} else {
				dst = appendPair(dst, p, only, depths(p), d)
			}
		}
		return dst
	}
	for fi := 0; fi < ps.NumH(); fi++ {
		f := core.FragRef{Sp: core.SpeciesH, Idx: fi}
		if isExcluded(f) {
			continue
		}
		df := depths(f)
		for _, gi := range ps.MPartners(fi) {
			g := core.FragRef{Sp: core.SpeciesM, Idx: int(gi)}
			if isExcluded(g) {
				continue
			}
			dst = appendPair(dst, f, g, df, depths(g))
		}
	}
	return dst
}

// appendPair appends the I2 candidates of the H fragment f paired with the
// M fragment g, in (fe, ge, fw, gw) order.
func appendPair(dst []Cand, f, g core.FragRef, df, dg [2]Depths) []Cand {
	for fe := LeftEnd; fe <= RightEnd; fe++ {
		for ge := LeftEnd; ge <= RightEnd; ge++ {
			for wi := 0; wi < df[fe].Len(); wi++ {
				for wj := 0; wj < dg[ge].Len(); wj++ {
					dst = append(dst, Cand{
						Kind: KindI2, F: f, G: g,
						A1: fe, A2: df[fe].At(wi),
						B1: ge, B2: dg[ge].At(wj),
					})
				}
			}
		}
	}
	return dst
}

// PieceKind identifies one cached-enumeration piece family.
type PieceKind uint8

// Piece families: the I1 target windows of one fragment, the I2 end depths
// of one fragment, and the I3 chain links of one H fragment.
const (
	PieceI1Windows PieceKind = iota
	PieceI2Depths
	PieceI3Chains
)

// Change reports one enumeration piece whose refreshed value differs from
// the previously cached one — the unit of targeted repair: exactly the
// candidates generated from this piece (I1 windows of Frag, I2 depth
// products involving Frag, or I3 chain links of Frag) may have appeared,
// disappeared, or changed identity.
type Change struct {
	Kind PieceKind
	Frag core.FragRef
}

// Stats counts the Enumerator's piece-cache traffic over a solve.
type Stats struct {
	// Refreshed is the number of enumeration pieces recomputed.
	Refreshed int
	// Reused is the number of rounds × pieces served from cache.
	Reused int
}

// piece is one cached enumeration unit plus the read set justifying it. A
// refresh rewrites reads and val in place, so a piece stops allocating once
// it has held its largest value.
type piece[T any] struct {
	ok    bool
	reads Reads
	val   T
}

// valid reports whether the piece exists and every fragment it read still
// has the version it read.
func (p *piece[T]) valid(src Source) bool {
	if !p.ok {
		return false
	}
	for _, r := range p.reads {
		if src.Version(r.Fr) != r.Ver {
			return false
		}
	}
	return true
}

// resetPieces returns n pieces, none ok, keeping the buffers of the pieces
// ps already holds.
func resetPieces[T any](ps []piece[T], n int) []piece[T] {
	if cap(ps) < n {
		ps = append(ps[:cap(ps)], make([]piece[T], n-cap(ps))...)
	}
	ps = ps[:n]
	for i := range ps {
		ps[i].ok = false
	}
	return ps
}

// Enumerator incrementally enumerates improvement candidates for one solve.
// It is not safe for concurrent use; one solve, one Enumerator. Reset
// readies it for the next solve and keeps its buffers.
type Enumerator struct {
	full, border bool
	sized        bool
	nh, nm       int
	pairs        *PairSet

	win   [2][]piece[[][2]int]  // I1 target windows per fragment
	dep   [2][]piece[[2]Depths] // I2 end depths per fragment
	chain []piece[[]Chain]      // I3 chain links per H fragment

	cands   []Cand   // merged candidate list, rebuilt each Candidates call
	changes []Change // pieces whose value moved in the last refresh, in visit order

	// A refreshed piece's new value, compared with the cached one before
	// it is copied in.
	winBuf   [][2]int
	chainBuf []Chain

	refreshed, reused int
}

// Reset readies e for a new solve of the selected method families over the
// given pair universe, keeping every buffer e holds. The zero Enumerator is
// ready after one Reset.
func (e *Enumerator) Reset(full, border bool, ps *PairSet) {
	e.full, e.border, e.pairs = full, border, ps
	e.sized = false
	e.refreshed, e.reused = 0, 0
}

// Stats returns the cumulative piece-cache counters.
func (e *Enumerator) Stats() Stats {
	return Stats{Refreshed: e.refreshed, Reused: e.reused}
}

func (e *Enumerator) size(src Source) {
	if e.sized {
		return
	}
	e.sized = true
	e.nh = src.NumFrags(core.SpeciesH)
	e.nm = src.NumFrags(core.SpeciesM)
	for sp, n := range [2]int{e.nh, e.nm} {
		if e.full {
			e.win[sp] = resetPieces(e.win[sp], n)
		}
		if e.border {
			e.dep[sp] = resetPieces(e.dep[sp], n)
		}
	}
	if e.border {
		e.chain = resetPieces(e.chain, e.nh)
	}
}

// refresh re-enumerates, in place, every piece whose recorded reads are
// dirty, and collects the pieces whose value actually changed in
// deterministic (species, fragment, piece-family) order. A piece refreshing
// to an identical value still updates its recorded read set — otherwise it
// would stay permanently dirty — but reports no change.
func (e *Enumerator) refresh(src Source) {
	e.size(src)
	e.changes = e.changes[:0]
	note := func(kind PieceKind, fr core.FragRef, changed bool) {
		e.refreshed++
		if changed {
			e.changes = append(e.changes, Change{Kind: kind, Frag: fr})
		}
	}
	visit := func(sp core.Species, idx int) {
		fr := core.FragRef{Sp: sp, Idx: idx}
		if e.full {
			if p := &e.win[sp][idx]; !p.valid(src) {
				p.reads = p.reads[:0]
				e.winBuf = AppendWindows(e.winBuf[:0], src.Sites(fr, &p.reads), src.FragLen(fr))
				changed := !p.ok || !slices.Equal(p.val, e.winBuf)
				note(PieceI1Windows, fr, changed)
				if changed {
					p.val = append(p.val[:0], e.winBuf...)
				}
				p.ok = true
			} else {
				e.reused++
			}
		}
		if e.border {
			if p := &e.dep[sp][idx]; !p.valid(src) {
				p.reads = p.reads[:0]
				n := src.FragLen(fr)
				sites := src.Sites(fr, &p.reads)
				v := [2]Depths{EndDepthsAt(sites, n, LeftEnd), EndDepthsAt(sites, n, RightEnd)}
				note(PieceI2Depths, fr, !p.ok || p.val != v)
				p.val, p.ok = v, true
			} else {
				e.reused++
			}
			if sp == core.SpeciesH {
				if p := &e.chain[idx]; !p.valid(src) {
					p.reads = p.reads[:0]
					e.chainBuf = src.Chains(e.chainBuf[:0], fr, &p.reads)
					changed := !p.ok || !slices.Equal(p.val, e.chainBuf)
					note(PieceI3Chains, fr, changed)
					if changed {
						p.val = append(p.val[:0], e.chainBuf...)
					}
					p.ok = true
				} else {
					e.reused++
				}
			}
		}
	}
	for i := 0; i < e.nh; i++ {
		visit(core.SpeciesH, i)
	}
	for i := 0; i < e.nm; i++ {
		visit(core.SpeciesM, i)
	}
}

// Candidates returns the full candidate list for the current state,
// re-enumerating only the pieces whose recorded reads are dirty. The
// returned slice is owned by the Enumerator and valid until the next call.
func (e *Enumerator) Candidates(src Source) []Cand {
	e.refresh(src)
	e.rebuild()
	return e.cands
}

// Repair refreshes the dirty pieces and returns the pieces whose values
// changed, in deterministic (species, fragment, piece-family) order — the
// input of the lazy selection engine's targeted heap repair. The returned
// slice is owned by the Enumerator and valid until the next call. On the
// first call every piece is dirty, so every piece is reported.
func (e *Enumerator) Repair(src Source) []Change {
	e.refresh(src)
	return e.changes
}

// Windows returns the cached I1 target windows of fr. Valid after a
// Candidates or Repair call; the slice is owned by the Enumerator.
func (e *Enumerator) Windows(fr core.FragRef) [][2]int { return e.win[fr.Sp][fr.Idx].val }

// EndDepths returns the cached I2 end depths of fr (left, right).
func (e *Enumerator) EndDepths(fr core.FragRef) [2]Depths { return e.dep[fr.Sp][fr.Idx].val }

// ChainLinks returns the cached I3 chain links of the H fragment fr.
func (e *Enumerator) ChainLinks(fr core.FragRef) []Chain { return e.chain[fr.Idx].val }

// rebuild merges the cached pieces into the canonical candidate order:
// I1 over (species, f, g, window), then I2 over (f, g, ends, depths), then
// one I3 per chain link — element-for-element what from-scratch enumeration
// produces.
func (e *Enumerator) rebuild() {
	e.cands = e.cands[:0]
	if e.full {
		for sp := core.SpeciesH; sp <= core.SpeciesM; sp++ {
			osp := sp.Other()
			nf := e.numFrags(sp)
			for fi := 0; fi < nf; fi++ {
				f := core.FragRef{Sp: sp, Idx: fi}
				for _, gi32 := range e.pairs.PartnersOf(f) {
					gi := int(gi32)
					g := core.FragRef{Sp: osp, Idx: gi}
					for _, w := range e.win[osp][gi].val {
						e.cands = append(e.cands, Cand{Kind: KindI1, F: f, G: g, A1: w[0], A2: w[1]})
					}
				}
			}
		}
	}
	if e.border {
		none := core.FragRef{Idx: -1}
		e.cands = AppendI2(e.cands, e.pairs, none, none, func(fr core.FragRef) [2]Depths {
			return e.dep[fr.Sp][fr.Idx].val
		})
		// Chain links are disjoint across H fragments (a match touches
		// exactly one H fragment), so no cross-piece dedup is needed.
		for fi := 0; fi < e.nh; fi++ {
			f := core.FragRef{Sp: core.SpeciesH, Idx: fi}
			for _, ch := range e.chain[fi].val {
				e.cands = append(e.cands, Cand{Kind: KindI3, F: f, G: ch.G, A1: ch.ID})
			}
		}
	}
}

func (e *Enumerator) numFrags(sp core.Species) int {
	if sp == core.SpeciesH {
		return e.nh
	}
	return e.nm
}
