package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/align"
	"repro/internal/symbol"
)

// Solution is a set of matches; the solver's working representation of a
// (candidate) consistent match set.
type Solution struct {
	Matches []Match
}

// Score returns the total score of all matches.
func (sol *Solution) Score() float64 {
	t := 0.0
	for i := range sol.Matches {
		t += sol.Matches[i].Score
	}
	return t
}

// Clone returns a deep copy.
func (sol *Solution) Clone() *Solution {
	c := &Solution{Matches: make([]Match, len(sol.Matches))}
	copy(c.Matches, sol.Matches)
	return c
}

// FragRef names one fragment of one species.
type FragRef struct {
	Sp  Species
	Idx int
}

func (fr FragRef) String() string { return fmt.Sprintf("%v%d", fr.Sp, fr.Idx) }

// siteIndex maps fragments to the matches touching them, sorted by site
// position within the fragment, in one flat CSR layout per species:
// fragment f's match indices are ids[sp][off[sp][f]:off[sp][f+1]]. It also
// holds the working buffers of the checks that read it (Validate,
// BuildConjecture): an alignment scratch, the orientation buffers and the
// per-match and per-fragment tables of the island walk. A check takes one
// from indexPool and returns it, so a solve's checks reuse one index.
type siteIndex struct {
	off [2][]int32
	ids [2][]int32

	scr       align.Scratch
	ori       symbol.Word    // checkMatch's oriented M site word
	words     [2]symbol.Word // assemble's oriented fragment word per species
	isLink    []bool
	emitted   []bool
	visited   [2][]bool
	frags     []FragRef // an island's fragments
	parent    []int32   // islands' union-find over fragment nodes (H, then M)
	root      []int32   // islands' root node per match
	islandOf  []int32   // islands' island offsets per root node
	islandIDs []int     // islands' match indices, island by island
	islandBuf [][]int
}

var indexPool = sync.Pool{New: func() any { return new(siteIndex) }}

func newSiteIndex() *siteIndex { return indexPool.Get().(*siteIndex) }

func (ix *siteIndex) release() { indexPool.Put(ix) }

// list returns the match indices on fragment f of species sp, by site
// position.
func (ix *siteIndex) list(sp Species, f int) []int32 {
	return ix.ids[sp][ix.off[sp][f]:ix.off[sp][f+1]]
}

// build indexes sol's matches: counts, then offsets, then one pass placing
// each match in match order, then a sort of each fragment's list by site
// position. The sites must be in range (checkMatch).
func (ix *siteIndex) build(sol *Solution, in *Instance) {
	nm := len(sol.Matches)
	for sp := SpeciesH; sp <= SpeciesM; sp++ {
		nf := in.NumFrags(sp)
		off := slices.Grow(ix.off[sp][:0], nf+1)[:nf+1]
		clear(off)
		for i := range sol.Matches {
			off[sol.Matches[i].Side(sp).Frag+1]++
		}
		for f := 1; f < len(off); f++ {
			off[f] += off[f-1]
		}
		ids := slices.Grow(ix.ids[sp][:0], nm)[:nm]
		// Place each match at its fragment's cursor, kept in off[f] and
		// shifted back below.
		for i := range sol.Matches {
			f := sol.Matches[i].Side(sp).Frag
			ids[off[f]] = int32(i)
			off[f]++
		}
		copy(off[1:], off[:len(off)-1])
		off[0] = 0
		ix.off[sp], ix.ids[sp] = off, ids
		for f := 0; f+1 < len(off); f++ {
			slices.SortFunc(ix.list(sp, f), func(a, b int32) int {
				return cmp.Compare(sol.Matches[a].Side(sp).Lo, sol.Matches[b].Side(sp).Lo)
			})
		}
	}
}

// Degree returns the number of matches touching fragment (sp, idx).
func (sol *Solution) Degree(in *Instance, sp Species, idx int) int {
	n := 0
	for i := range sol.Matches {
		if sol.Matches[i].Side(sp).Frag == idx {
			n++
		}
	}
	return n
}

// Contribution returns Cb(f, S): the total score of matches involving the
// fragment (Definition 5).
func (sol *Solution) Contribution(sp Species, idx int) float64 {
	t := 0.0
	for i := range sol.Matches {
		if sol.Matches[i].Side(sp).Frag == idx {
			t += sol.Matches[i].Score
		}
	}
	return t
}

// Mult returns the multiple fragments of the solution: fragments
// participating in more than one match (Definition 5; in a two-fragment
// island the paper designates one fragment of the pair as multiple — here
// we use the purely combinatorial ≥2-matches criterion, and islands with a
// single shared border match are handled by the chain logic).
func (sol *Solution) Mult(in *Instance) []FragRef {
	deg := sol.degrees(in)
	var out []FragRef
	for sp := SpeciesH; sp <= SpeciesM; sp++ {
		for f, d := range deg[sp] {
			if d >= 2 {
				out = append(out, FragRef{Sp: Species(sp), Idx: f})
			}
		}
	}
	return out
}

// Simp returns the simple fragments: those participating in exactly one
// match.
func (sol *Solution) Simp(in *Instance) []FragRef {
	deg := sol.degrees(in)
	var out []FragRef
	for sp := SpeciesH; sp <= SpeciesM; sp++ {
		for f, d := range deg[sp] {
			if d == 1 {
				out = append(out, FragRef{Sp: Species(sp), Idx: f})
			}
		}
	}
	return out
}

func (sol *Solution) degrees(in *Instance) [2][]int {
	var deg [2][]int
	deg[0] = make([]int, in.NumFrags(SpeciesH))
	deg[1] = make([]int, in.NumFrags(SpeciesM))
	for i := range sol.Matches {
		deg[SpeciesH][sol.Matches[i].HSite.Frag]++
		deg[SpeciesM][sol.Matches[i].MSite.Frag]++
	}
	return deg
}

// Islands returns the connected components of the solution graph
// (Definition 5): fragments are nodes, matches are edges. Each island is
// returned as the list of match indices it contains; fragments with no
// matches appear in no island. Every match's sites must lie on fragments
// of in, H site first (Validate checks this); Islands panics otherwise.
func (sol *Solution) Islands(in *Instance) [][]int {
	return new(siteIndex).islands(sol, in)
}

// islands is Islands in ix's buffers, valid until ix is next used. Islands
// come in ascending order of their root fragment under the union-find
// below (H fragments before M), each listing its matches ascending.
func (ix *siteIndex) islands(sol *Solution, in *Instance) [][]int {
	nh := in.NumFrags(SpeciesH)
	nodes := nh + in.NumFrags(SpeciesM)
	parent := slices.Grow(ix.parent[:0], nodes)[:nodes]
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		if p := parent[x]; p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		return x
	}
	for i := range sol.Matches {
		mt := &sol.Matches[i]
		a := find(int32(mt.HSite.Frag))
		parent[a] = find(int32(nh + mt.MSite.Frag))
	}
	// Count each root's matches, then place the matches root by root in
	// ascending order (off[r] starts root r's island, then ends it).
	nm := len(sol.Matches)
	root := slices.Grow(ix.root[:0], nm)[:nm]
	off := slices.Grow(ix.islandOf[:0], nodes+1)[:nodes+1]
	clear(off)
	for i := range sol.Matches {
		root[i] = find(int32(sol.Matches[i].HSite.Frag))
		off[root[i]+1]++
	}
	for r := 1; r < len(off); r++ {
		off[r] += off[r-1]
	}
	ids := slices.Grow(ix.islandIDs[:0], nm)[:nm]
	for i, r := range root {
		ids[off[r]] = i
		off[r]++
	}
	out := ix.islandBuf[:0]
	lo := int32(0)
	for _, end := range off[:nodes] {
		if end > lo {
			out = append(out, ids[lo:end:end])
			lo = end
		}
	}
	ix.parent, ix.root, ix.islandOf, ix.islandIDs, ix.islandBuf = parent, root, off, ids, out
	return out
}

// Validate checks the structural invariants that every candidate match set
// must satisfy regardless of consistency: valid sites, valid cached scores,
// and pairwise-disjoint sites on every fragment.
func (sol *Solution) Validate(in *Instance) error {
	ix := newSiteIndex()
	defer ix.release()
	return sol.validate(in, ix)
}

// validate is Validate building its site index in ix, which a caller that
// goes on to walk the solution (BuildConjecture) then reads.
func (sol *Solution) validate(in *Instance, ix *siteIndex) error {
	for i := range sol.Matches {
		if err := in.checkMatch(sol.Matches[i], ix); err != nil {
			return fmt.Errorf("match %d: %w", i, err)
		}
	}
	ix.build(sol, in)
	for sp := SpeciesH; sp <= SpeciesM; sp++ {
		spc := Species(sp)
		for f := 0; f < in.NumFrags(spc); f++ {
			lst := ix.list(spc, f)
			for k := 1; k < len(lst); k++ {
				prev := sol.Matches[lst[k-1]].Side(spc)
				cur := sol.Matches[lst[k]].Side(spc)
				if prev.Hi > cur.Lo {
					return fmt.Errorf("core: fragment %v%d: overlapping sites %v and %v",
						spc, f, prev, cur)
				}
			}
		}
	}
	return nil
}
