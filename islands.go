package fragalign

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Island is one group of contigs whose relative order and orientation the
// comparison determines (§1: "an island of contigs that are oriented and
// ordered relative to one another"). Inter-island relationships are not
// implied by the data.
type Island struct {
	// LayoutH and LayoutM list the island's contigs of each species in
	// inferred order with orientations (relative within the island).
	LayoutH, LayoutM []OrientedFrag
	// Score is the total score of the island's matches.
	Score float64
	// Matches are the supporting matches.
	Matches []Match
}

// FormatIsland renders one island, e.g. "H: h1 h2' | M: m1 m2 (score 11)".
func FormatIsland(in *Instance, isl Island) string {
	name := func(sp Species, of OrientedFrag) string {
		n := in.Frag(sp, of.Frag).Name
		if n == "" {
			n = fmt.Sprintf("%v%d", sp, of.Frag)
		}
		if of.Rev {
			n += "'"
		}
		return n
	}
	var hs, ms []string
	for _, of := range isl.LayoutH {
		hs = append(hs, name(SpeciesH, of))
	}
	for _, of := range isl.LayoutM {
		ms = append(ms, name(SpeciesM, of))
	}
	return fmt.Sprintf("H: %s | M: %s (score %v, %d matches)",
		strings.Join(hs, " "), strings.Join(ms, " "), isl.Score, len(isl.Matches))
}

// IslandsReport decomposes a solution into its islands — the units of
// order/orientation information the method can actually assert. Each
// island's layouts are computed independently (orientations are relative
// within the island; a global flip of any island is equally valid).
// Islands are sorted by descending score.
func IslandsReport(in *Instance, sol *Solution) ([]Island, error) {
	if sol == nil {
		return nil, fmt.Errorf("fragalign: nil solution")
	}
	// Islands indexes fragments by every match's sites, so an invalid
	// match is reported here rather than reached there. Every check
	// Validate makes is per fragment, so it fails exactly when some
	// island's BuildConjecture would.
	if err := sol.Validate(in); err != nil {
		return nil, fmt.Errorf("fragalign: island inconsistent: %w", err)
	}
	var out []Island
	for _, matchIdxs := range sol.Islands(in) {
		sub := &core.Solution{}
		for _, mi := range matchIdxs {
			sub.Matches = append(sub.Matches, sol.Matches[mi])
		}
		conj, err := sub.BuildConjecture(in)
		if err != nil {
			return nil, fmt.Errorf("fragalign: island inconsistent: %w", err)
		}
		isl := Island{Score: sub.Score(), Matches: sub.Matches}
		// Keep only contigs that actually participate in the island.
		inIsland := map[FragRef]bool{}
		for _, mt := range sub.Matches {
			inIsland[FragRef{Sp: SpeciesH, Idx: mt.HSite.Frag}] = true
			inIsland[FragRef{Sp: SpeciesM, Idx: mt.MSite.Frag}] = true
		}
		for _, of := range conj.HOrder {
			if inIsland[FragRef{Sp: SpeciesH, Idx: of.Frag}] {
				isl.LayoutH = append(isl.LayoutH, of)
			}
		}
		for _, of := range conj.MOrder {
			if inIsland[FragRef{Sp: SpeciesM, Idx: of.Frag}] {
				isl.LayoutM = append(isl.LayoutM, of)
			}
		}
		out = append(out, isl)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}

// FragRef re-exports the fragment reference type used by island reports.
type FragRef = core.FragRef
