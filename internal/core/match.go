package core

import (
	"fmt"

	"repro/internal/align"
)

// Match pairs a site of an H fragment with a site of an M fragment
// (Definition 2). Rev records the relative orientation: the scored
// alignment pairs the H site word (normal orientation) against the M site
// word, reversed when Rev is true. Score caches the alignment score.
type Match struct {
	HSite, MSite Site
	Rev          bool
	Score        float64
}

// Side returns the match's site for the given species.
func (mt Match) Side(sp Species) Site {
	if sp == SpeciesH {
		return mt.HSite
	}
	return mt.MSite
}

// SetSide replaces the match's site for the given species. The caller is
// responsible for refreshing the cached Score afterwards.
func (mt *Match) SetSide(sp Species, s Site) {
	if sp == SpeciesH {
		mt.HSite = s
	} else {
		mt.MSite = s
	}
}

// AlignScore recomputes the alignment score of the match's oriented site
// words under the instance's σ.
func (mt *Match) AlignScore(in *Instance) float64 {
	hw := in.SiteWord(mt.HSite)
	mw := in.SiteWord(mt.MSite).Orient(mt.Rev)
	return align.Score(hw, mw, in.Sigma)
}

// CheckMatch validates the match's sites and cached score.
func (in *Instance) CheckMatch(mt Match) error {
	ix := newSiteIndex()
	defer ix.release()
	return in.checkMatch(mt, ix)
}

// checkMatch is CheckMatch re-aligning on ix's scratch and orientation
// buffer, so checking a whole solution allocates nothing per match.
func (in *Instance) checkMatch(mt Match, ix *siteIndex) error {
	if err := in.CheckSite(mt.HSite); err != nil {
		return err
	}
	if err := in.CheckSite(mt.MSite); err != nil {
		return err
	}
	if mt.HSite.Species != SpeciesH || mt.MSite.Species != SpeciesM {
		return fmt.Errorf("core: match %v/%v: sites on wrong species", mt.HSite, mt.MSite)
	}
	ix.ori = in.SiteWord(mt.MSite).AppendOrient(ix.ori[:0], mt.Rev)
	if got := ix.scr.Score(in.SiteWord(mt.HSite), ix.ori, in.Sigma); got != mt.Score {
		return fmt.Errorf("core: match %v/%v: cached score %v, alignment scores %v",
			mt.HSite, mt.MSite, mt.Score, got)
	}
	return nil
}

// MatchKind classifies a match per Definition 3: a full match involves a
// full site; a border match involves a border site (and no full site).
type MatchKind int

const (
	// FullMatch involves at least one full site.
	FullMatch MatchKind = iota
	// BorderMatch involves a border site and no full site.
	BorderMatch
	// InvalidMatch involves an inner site and no full site; such a site
	// combination cannot occur in any conjecture pair.
	InvalidMatch
)

func (k MatchKind) String() string {
	switch k {
	case FullMatch:
		return "full"
	case BorderMatch:
		return "border"
	default:
		return "invalid"
	}
}

// KindOf classifies the match.
func (in *Instance) KindOf(mt Match) MatchKind {
	hk, mk := in.Kind(mt.HSite), in.Kind(mt.MSite)
	if hk == KindFull || mk == KindFull {
		return FullMatch
	}
	if hk.IsBorder() && mk.IsBorder() {
		return BorderMatch
	}
	return InvalidMatch
}

// MatchScore computes MS(h̄, m̄) per Definition 4 together with the
// orientation that attains it:
//
//   - If either site is full, both relative orientations are permitted
//     (Fig. 7): MS = max(P_score(h̄, m̄), P_score(h̄, m̄ᴿ)).
//   - If both sites are border sites, the fragments must continue in
//     opposite directions away from the match (Fig. 8), which forces the
//     relative orientation: two prefixes or two suffixes must pair
//     reversed; a prefix–suffix pair must pair forward.
//   - Inner–inner and inner–border combinations are invalid: an inner site
//     leaves its fragment continuing on both sides, which no conjecture
//     pair can realize against a non-full partner.
//
// The returned Match carries the chosen orientation and cached score.
func (in *Instance) MatchScore(hs, ms Site) (Match, error) {
	if err := in.CheckSite(hs); err != nil {
		return Match{}, err
	}
	if err := in.CheckSite(ms); err != nil {
		return Match{}, err
	}
	hk, mk := in.Kind(hs), in.Kind(ms)
	hw := in.SiteWord(hs)
	mw := in.SiteWord(ms)
	if hk == KindFull || mk == KindFull {
		sc, rev := align.BestOrient(hw, mw, in.Sigma)
		return Match{HSite: hs, MSite: ms, Rev: rev, Score: sc}, nil
	}
	if !hk.IsBorder() || !mk.IsBorder() {
		return Match{}, fmt.Errorf("core: MS undefined for %v(%v) vs %v(%v)", hs, hk, ms, mk)
	}
	// Border–border: prefix continues right, suffix continues left (in
	// normal orientation); reversal flips the direction. Opposite
	// continuation directions require rev = (same kind).
	rev := hk == mk
	sc := align.Score(hw, mw.Orient(rev), in.Sigma)
	return Match{HSite: hs, MSite: ms, Rev: rev, Score: sc}, nil
}
