package enum

import (
	"cmp"
	"slices"

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

	// Reset's buffers: the sorted pairs, the backing arrays of mOf and
	// hOf, and the per-M-fragment pair counts.
	sorted     [][2]int32
	mBuf, hBuf []int32
	hCnt       []int32
}

// Reset makes p the universe holding exactly the given (H index, M index)
// pairs (deduplicated; order irrelevant), reusing p's storage.
func (p *PairSet) Reset(nh, nm int, pairs [][2]int32) {
	p.sorted = append(p.sorted[:0], pairs...)
	slices.SortFunc(p.sorted, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Compare(a[1], b[1])
	})
	p.mOf, p.hOf = slices.Grow(p.mOf[:0], nh)[:nh], slices.Grow(p.hOf[:0], nm)[:nm]
	p.off, p.hCnt = slices.Grow(p.off[:0], nh+1)[:nh+1], slices.Grow(p.hCnt[:0], nm)[:nm]
	clear(p.off)
	clear(p.hCnt)
	p.mBuf = p.mBuf[:0]
	for i, pr := range p.sorted {
		if i > 0 && pr == p.sorted[i-1] {
			continue
		}
		fi, gi := pr[0], pr[1]
		p.mBuf = append(p.mBuf, gi)
		p.off[fi+1]++
		p.hCnt[gi]++
	}
	for fi := 0; fi < nh; fi++ {
		p.off[fi+1] += p.off[fi]
		p.mOf[fi] = p.mBuf[p.off[fi]:p.off[fi+1]:p.off[fi+1]]
	}
	p.hBuf = slices.Grow(p.hBuf[:0], len(p.mBuf))[:len(p.mBuf)]
	at := int32(0)
	for gi, c := range p.hCnt {
		p.hOf[gi] = p.hBuf[at : at : at+c]
		at += c
	}
	for fi := 0; fi < nh; fi++ {
		for _, gi := range p.mOf[fi] {
			p.hOf[gi] = append(p.hOf[gi], int32(fi))
		}
	}
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
