package improve

import (
	"repro/internal/core"
	"repro/internal/improve/enum"
)

// enumView adapts the live driver state to the enumeration subsystem's
// read-only Source interface. Queries record the fragments they read into
// the enum.Reads set — at the adapter level, mirroring exactly what the
// underlying state accessors consult — so cached enumeration pieces
// invalidate under the same version-counter scheme as the gain cache.
type enumView struct {
	st *state
}

func (v enumView) NumFrags(sp core.Species) int { return v.st.in.NumFrags(sp) }

func (v enumView) FragLen(fr core.FragRef) int { return v.st.in.Frag(fr.Sp, fr.Idx).Len() }

func (v enumView) Version(fr core.FragRef) uint64 { return v.st.vers.of(fr) }

func (v enumView) note(r *enum.Reads, fr core.FragRef) { r.Note(fr, v.Version(fr)) }

// Sites returns fr's occupied sites, reading only fr's match data. The
// result is the state's sitesOn buffer, valid until the next call.
func (v enumView) Sites(fr core.FragRef, r *enum.Reads) []core.Site {
	v.note(r, fr)
	return v.st.sitesOn(fr)
}

// Chains appends fr's 2-island links in site order to dst. The computation
// reads fr's match list plus the degree of every partner fragment, so all
// of those are recorded.
func (v enumView) Chains(dst []enum.Chain, fr core.FragRef, r *enum.Reads) []enum.Chain {
	v.note(r, fr)
	for _, id := range v.st.fragMatchIDs(fr) {
		mt := v.st.matches[id]
		m := core.FragRef{Sp: core.SpeciesM, Idx: mt.MSite.Frag}
		v.note(r, m)
		if v.st.degree(fr) >= 2 && v.st.degree(m) >= 2 {
			dst = append(dst, enum.Chain{ID: id, G: m})
		}
	}
	return dst
}
