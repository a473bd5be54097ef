package enum

import (
	"sort"

	"repro/internal/core"
)

// PairSet is the candidate fragment-pair universe of a solve: which
// (H fragment, M fragment) pairs enumeration and simulation may consider.
// The improve driver fills it from the positive-σ mask (seed.Mask) or, on
// seeded solves, from the minimizer chains (seed.Candidates). It stores
// ascending partner lists both ways plus prefix offsets, so candidate slots
// stay dense (Rank) and per-fragment iteration stays ascending-order — the
// order of all-pairs nested loops, restricted to the universe's pairs.
type PairSet struct {
	// mOf[fi] lists the M partners of H fragment fi, ascending; hOf[gi]
	// the H partners of M fragment gi. off[fi] is the rank of fi's first
	// pair in H-major order.
	mOf, hOf [][]int32
	off      []int32
}

// NewPairSet returns the universe holding exactly the given
// (H index, M index) pairs (deduplicated; order irrelevant).
func NewPairSet(nh, nm int, pairs [][2]int32) *PairSet {
	sorted := make([][2]int32, len(pairs))
	copy(sorted, pairs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	p := &PairSet{
		mOf: make([][]int32, nh),
		hOf: make([][]int32, nm),
		off: make([]int32, nh+1),
	}
	mBuf := make([]int32, 0, len(sorted))
	hCnt := make([]int32, nm)
	for i, pr := range sorted {
		if i > 0 && pr == sorted[i-1] {
			continue
		}
		fi, gi := pr[0], pr[1]
		mBuf = append(mBuf, gi)
		p.off[fi+1]++
		hCnt[gi]++
	}
	for fi := 0; fi < nh; fi++ {
		p.off[fi+1] += p.off[fi]
		p.mOf[fi] = mBuf[p.off[fi]:p.off[fi+1]:p.off[fi+1]]
	}
	hBuf := make([]int32, len(mBuf))
	at := make([]int32, nm)
	for gi := 1; gi < nm; gi++ {
		at[gi] = at[gi-1] + hCnt[gi-1]
	}
	for gi, c := range hCnt {
		p.hOf[gi] = hBuf[at[gi] : at[gi] : at[gi]+c]
	}
	for fi := 0; fi < nh; fi++ {
		for _, gi := range p.mOf[fi] {
			p.hOf[gi] = append(p.hOf[gi], int32(fi))
		}
	}
	return p
}

// NumH returns the universe's H fragment count.
func (p *PairSet) NumH() int { return len(p.mOf) }

// Len returns the number of pairs in the universe.
func (p *PairSet) Len() int {
	return int(p.off[len(p.mOf)])
}

// MPartners returns the ascending M partner indices of H fragment fi. The
// slice is shared; callers must not modify it.
func (p *PairSet) MPartners(fi int) []int32 {
	return p.mOf[fi]
}

// HPartners returns the ascending H partner indices of M fragment gi.
func (p *PairSet) HPartners(gi int) []int32 {
	return p.hOf[gi]
}

// Rank returns the dense slot index of pair (fi, gi) in H-major order, or
// -1 when the pair is not in the universe.
func (p *PairSet) Rank(fi, gi int) int {
	row := p.mOf[fi]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < int32(gi) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == int32(gi) {
		return int(p.off[fi]) + lo
	}
	return -1
}

// PartnersOf returns the ascending opposite-species partner indices of the
// given fragment.
func (p *PairSet) PartnersOf(fr core.FragRef) []int32 {
	if fr.Sp == core.SpeciesH {
		return p.MPartners(fr.Idx)
	}
	return p.HPartners(fr.Idx)
}
