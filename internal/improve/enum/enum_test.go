package enum

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
)

// fakeSource is a hand-driven Source: tests edit sites and chain links
// directly and bump versions the way the driver's live state would.
type fakeSource struct {
	lens   [2][]int
	sites  [2][][]core.Site
	chains [][]Chain // per H fragment
	vers   [2][]uint64
}

func newFakeSource(hLens, mLens []int) *fakeSource {
	s := &fakeSource{lens: [2][]int{hLens, mLens}, chains: make([][]Chain, len(hLens))}
	for sp := range s.lens {
		s.sites[sp] = make([][]core.Site, len(s.lens[sp]))
		s.vers[sp] = make([]uint64, len(s.lens[sp]))
	}
	return s
}

func (s *fakeSource) NumFrags(sp core.Species) int   { return len(s.lens[sp]) }
func (s *fakeSource) FragLen(fr core.FragRef) int    { return s.lens[fr.Sp][fr.Idx] }
func (s *fakeSource) Version(fr core.FragRef) uint64 { return s.vers[fr.Sp][fr.Idx] }
func (s *fakeSource) bump(fr core.FragRef)           { s.vers[fr.Sp][fr.Idx]++ }
func (s *fakeSource) note(r *Reads, fr core.FragRef) { r.Note(fr, s.Version(fr)) }
func (s *fakeSource) setSites(fr core.FragRef, ss ...core.Site) {
	s.sites[fr.Sp][fr.Idx] = ss
	s.bump(fr)
}

func (s *fakeSource) Sites(fr core.FragRef, r *Reads) []core.Site {
	s.note(r, fr)
	return s.sites[fr.Sp][fr.Idx]
}

func (s *fakeSource) Chains(dst []Chain, fr core.FragRef, r *Reads) []Chain {
	s.note(r, fr)
	return append(dst, s.chains[fr.Idx]...)
}

// allPairs is the dense test universe: every one of the nh×nm pairs.
// newEnumerator returns an Enumerator Reset for one solve over ps.
func newEnumerator(full, border bool, ps *PairSet) *Enumerator {
	e := new(Enumerator)
	e.Reset(full, border, ps)
	return e
}

// newPairSet returns the universe holding exactly the given pairs.
func newPairSet(nh, nm int, pairs [][2]int32) *PairSet {
	p := new(PairSet)
	p.Reset(nh, nm, pairs)
	return p
}

func allPairs(nh, nm int) *PairSet {
	var pairs [][2]int32
	for fi := 0; fi < nh; fi++ {
		for gi := 0; gi < nm; gi++ {
			pairs = append(pairs, [2]int32{int32(fi), int32(gi)})
		}
	}
	return newPairSet(nh, nm, pairs)
}

var (
	h0 = core.FragRef{Sp: core.SpeciesH, Idx: 0}
	h1 = core.FragRef{Sp: core.SpeciesH, Idx: 1}
	m0 = core.FragRef{Sp: core.SpeciesM, Idx: 0}
	m1 = core.FragRef{Sp: core.SpeciesM, Idx: 1}
)

// TestRepairReportsExactlyMovedPieces drives an Enumerator through state
// edits and checks the two contracts its consumers rely on: Repair reports
// exactly the pieces whose values changed (in species, fragment, family
// order), and the merged list always equals a
// fresh Enumerator's list on the same state.
func TestRepairReportsExactlyMovedPieces(t *testing.T) {
	src := newFakeSource([]int{4, 3}, []int{5, 2})
	en := newEnumerator(true, true, allPairs(2, 2))
	check := func(step string, want []Change) {
		t.Helper()
		if got := en.Repair(src); !slices.Equal(got, want) {
			t.Fatalf("%s: Repair reported %v, want %v", step, got, want)
		}
		refreshed := en.Stats().Refreshed
		got := slices.Clone(en.Candidates(src))
		if en.Stats().Refreshed != refreshed {
			t.Fatalf("%s: Candidates refreshed pieces right after Repair", step)
		}
		if fresh := newEnumerator(true, true, allPairs(2, 2)).Candidates(src); !slices.Equal(got, fresh) {
			t.Fatalf("%s: incremental list %v\nfresh list %v", step, got, fresh)
		}
	}

	// First call: every piece is new, so every piece is reported.
	check("initial", []Change{
		{PieceI1Windows, h0}, {PieceI2Depths, h0}, {PieceI3Chains, h0},
		{PieceI1Windows, h1}, {PieceI2Depths, h1}, {PieceI3Chains, h1},
		{PieceI1Windows, m0}, {PieceI2Depths, m0},
		{PieceI1Windows, m1}, {PieceI2Depths, m1},
	})
	check("unchanged", nil)

	// A partial match on m0 moves its windows and its end depths.
	src.setSites(m0, core.Site{Species: core.SpeciesM, Frag: 0, Lo: 1, Hi: 3})
	check("m0 site", []Change{{PieceI1Windows, m0}, {PieceI2Depths, m0}})

	// A version bump with no value change refreshes h1's pieces but
	// reports nothing.
	before := en.Stats().Refreshed
	src.bump(h1)
	check("h1 bump", nil)
	if en.Stats().Refreshed != before+3 {
		t.Fatalf("h1 bump refreshed %d pieces, want 3", en.Stats().Refreshed-before)
	}

	// A new chain link on h0 moves only its I3 piece; a site covering the
	// whole fragment leaves one window and one depth per end — the same
	// values as the empty fragment — so only the chain piece moves.
	src.chains[0] = []Chain{{ID: 7, G: m1}}
	src.setSites(h0, core.Site{Species: core.SpeciesH, Frag: 0, Lo: 0, Hi: 4})
	check("h0 chain", []Change{{PieceI3Chains, h0}})
}

// TestCandidatesRespectPairUniverse: a sparse universe restricts I1 and I2
// candidates to its pairs, and the merged list is ascending under Less
// through the I1/I2 part (the canonical order the selection engine's
// tie-break assumes).
func TestCandidatesRespectPairUniverse(t *testing.T) {
	src := newFakeSource([]int{4, 3}, []int{5, 2})
	src.setSites(m0, core.Site{Species: core.SpeciesM, Frag: 0, Lo: 1, Hi: 3})
	ps := newPairSet(2, 2, [][2]int32{{0, 1}, {1, 0}})
	cands := newEnumerator(true, true, ps).Candidates(src)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i, c := range cands {
		h, m := c.F, c.G
		if h.Sp == core.SpeciesM {
			h, m = m, h
		}
		if c.Kind != KindI3 && ps.Rank(h.Idx, m.Idx) < 0 {
			t.Errorf("%s pairs %v with %v outside the universe", c, h, m)
		}
		if i > 0 && c.Kind != KindI3 && !Less(cands[i-1], c) {
			t.Errorf("%s before %s breaks canonical order", cands[i-1], c)
		}
	}
	dense := newEnumerator(true, true, allPairs(2, 2)).Candidates(src)
	if len(cands) >= len(dense) {
		t.Fatalf("sparse universe kept %d of %d candidates", len(cands), len(dense))
	}
}

// TestAppendI2Restricted checks the restricted forms of AppendI2 — the I3
// rewiring path's inner I2 scan — against the unrestricted form on a dense
// and a sparse universe, for every choice of only and exclude: the output
// must be the unrestricted list filtered to pairs with only and without
// exclude, in the same order, and depths must be called exactly once for
// only and once for each non-excluded partner of only — never for a
// fragment that cannot pair with it, so an I3 gain's read set stays within
// the re-linked fragments' partners.
func TestAppendI2Restricted(t *testing.T) {
	const nh, nm = 3, 4
	// Fragment lengths and sites give distinct depth sets: some ends have a
	// partial free depth (two candidate depths), others only the full one.
	lens := [2][]int{{4, 6, 3}, {5, 2, 7, 4}}
	sites := map[core.FragRef][]core.Site{
		{Sp: core.SpeciesH, Idx: 1}: {{Species: core.SpeciesH, Frag: 1, Lo: 2, Hi: 4}},
		{Sp: core.SpeciesM, Idx: 0}: {{Species: core.SpeciesM, Frag: 0, Lo: 0, Hi: 3}},
		{Sp: core.SpeciesM, Idx: 2}: {{Species: core.SpeciesM, Frag: 2, Lo: 1, Hi: 5}},
	}
	depthsOf := func(fr core.FragRef) [2]Depths {
		n := lens[fr.Sp][fr.Idx]
		return [2]Depths{EndDepthsAt(sites[fr], n, LeftEnd), EndDepthsAt(sites[fr], n, RightEnd)}
	}
	var frags []core.FragRef
	for sp := core.SpeciesH; sp <= core.SpeciesM; sp++ {
		for i := range lens[sp] {
			frags = append(frags, core.FragRef{Sp: sp, Idx: i})
		}
	}
	none := core.FragRef{Idx: -1}
	for _, u := range []struct {
		name string
		ps   *PairSet
	}{
		{"dense", allPairs(nh, nm)},
		{"sparse", newPairSet(nh, nm, [][2]int32{{0, 1}, {0, 3}, {1, 0}, {2, 1}, {2, 2}, {2, 3}})},
	} {
		all := AppendI2(nil, u.ps, none, none, depthsOf)
		for _, only := range frags {
			for _, exclude := range append([]core.FragRef{none}, frags...) {
				var want []Cand
				for _, c := range all {
					if (c.F == only || c.G == only) && c.F != exclude && c.G != exclude {
						want = append(want, c)
					}
				}
				calls := map[core.FragRef]int{}
				got := AppendI2(nil, u.ps, only, exclude, func(fr core.FragRef) [2]Depths {
					calls[fr]++
					return depthsOf(fr)
				})
				if !slices.Equal(got, want) {
					t.Errorf("%s only %v exclude %v:\ngot  %v\nwant %v", u.name, only, exclude, got, want)
				}
				wantCalls := map[core.FragRef]int{}
				if only != exclude {
					wantCalls[only] = 1
					for _, pi := range u.ps.PartnersOf(only) {
						if p := (core.FragRef{Sp: only.Sp.Other(), Idx: int(pi)}); p != exclude {
							wantCalls[p] = 1
						}
					}
				}
				if !maps.Equal(calls, wantCalls) {
					t.Errorf("%s only %v exclude %v: depths calls %v, want %v", u.name, only, exclude, calls, wantCalls)
				}
			}
		}
	}
}
