package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/symbol"
)

// OrientedFrag is one fragment with its orientation in a conjecture
// sequence.
type OrientedFrag struct {
	Frag int
	Rev  bool
}

// Conjecture is a realized conjecture pair (Definition 1): two equal-length
// padded words together with the fragment layouts that produced them and
// the match emission order. Score is the column score Score(h, m), which
// equals the total score of the consistent match set it was built from
// (Remark 1).
type Conjecture struct {
	H, M           symbol.Word
	HOrder, MOrder []OrientedFrag
	MatchOrder     []int
	Score          float64
}

// FormatLayout renders the fragment layout of one species, e.g.
// "h2' h1 | h3" (reversal marked with ', unmatched fragments after |).
func (c *Conjecture) FormatLayout(in *Instance, sp Species, matched int) string {
	order := c.HOrder
	if sp == SpeciesM {
		order = c.MOrder
	}
	parts := make([]string, 0, len(order)+1)
	for i, of := range order {
		if i == matched {
			parts = append(parts, "|")
		}
		name := in.Frag(sp, of.Frag).Name
		if name == "" {
			name = fmt.Sprintf("%v%d", sp, of.Frag)
		}
		if of.Rev {
			name += "'"
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, " ")
}

// IsConsistent reports whether the match set is consistent (Definition 2):
// producible from some conjecture pair. It is a convenience wrapper around
// BuildConjecture.
func (sol *Solution) IsConsistent(in *Instance) bool {
	_, err := sol.BuildConjecture(in)
	return err == nil
}

// BuildConjecture constructs a conjecture pair realizing the match set
// (Remark 1), or reports why none exists. The construction walks each
// island of the solution graph: islands must be caterpillar chains —
// multiple fragments joined by border ("chain link") matches at the extreme
// ends of their match lists, with orientations propagating consistently —
// with simple fragments plugged into the interior. The resulting column
// score always equals the match-set score.
func (sol *Solution) BuildConjecture(in *Instance) (*Conjecture, error) {
	// One site index serves the validation and the walk.
	ix := newSiteIndex()
	defer ix.release()
	if err := sol.validate(in, ix); err != nil {
		return nil, err
	}
	deg := func(sp Species, f int) int { return len(ix.list(sp, f)) }

	// Multi-edges (two matches between the same fragment pair) are never
	// produced by a single conjecture pair: the pair would merge them into
	// one match. The first match repeating an earlier pair is reported.
	for i := range sol.Matches {
		h, m := sol.Matches[i].HSite.Frag, sol.Matches[i].MSite.Frag
		for _, j := range ix.list(SpeciesH, h) {
			if int(j) < i && sol.Matches[j].MSite.Frag == m {
				return nil, fmt.Errorf("core: fragments H%d and M%d share two matches", h, m)
			}
		}
	}

	// Chain links: matches whose two fragments both have ≥ 2 matches.
	nm := len(sol.Matches)
	isLink := slices.Grow(ix.isLink[:0], nm)[:nm]
	ix.isLink = isLink
	for i := range sol.Matches {
		mt := &sol.Matches[i]
		isLink[i] = deg(SpeciesH, mt.HSite.Frag) >= 2 && deg(SpeciesM, mt.MSite.Frag) >= 2
	}
	// Per-fragment link positions must be extreme.
	chainDeg := func(sp Species, f int) int {
		n := 0
		for _, mi := range ix.list(sp, f) {
			if isLink[mi] {
				n++
			}
		}
		return n
	}
	for sp := SpeciesH; sp <= SpeciesM; sp++ {
		spc := Species(sp)
		for f := 0; f < in.NumFrags(spc); f++ {
			lst := ix.list(spc, f)
			links, first, last := 0, -1, -1 // link count and positions within lst
			for p, mi := range lst {
				if isLink[mi] {
					links++
					if first < 0 {
						first = p
					}
					last = p
				}
			}
			switch {
			case links > 2:
				return nil, fmt.Errorf("core: fragment %v%d has %d chain links (max 2)", spc, f, links)
			case links == 2:
				if first != 0 || last != len(lst)-1 {
					return nil, fmt.Errorf("core: fragment %v%d: chain links not at opposite extremes", spc, f)
				}
			case links == 1:
				if first != 0 && first != len(lst)-1 {
					return nil, fmt.Errorf("core: fragment %v%d: chain link at interior position", spc, f)
				}
			}
		}
	}

	// Walk every island, producing the global match emission order and
	// fragment orientations.
	for sp := SpeciesH; sp <= SpeciesM; sp++ {
		n := in.NumFrags(sp)
		ix.visited[sp] = slices.Grow(ix.visited[sp][:0], n)[:n]
		clear(ix.visited[sp])
	}
	visited := ix.visited
	emitted := slices.Grow(ix.emitted[:0], nm)[:nm]
	clear(emitted)
	ix.emitted = emitted
	matchOrder := make([]int, 0, len(sol.Matches))
	hOrder := make([]OrientedFrag, 0, in.NumFrags(SpeciesH))
	mOrder := make([]OrientedFrag, 0, in.NumFrags(SpeciesM))

	appearFrag := func(fr FragRef, rev bool) {
		if visited[fr.Sp][fr.Idx] {
			return
		}
		visited[fr.Sp][fr.Idx] = true
		of := OrientedFrag{Frag: fr.Idx, Rev: rev}
		if fr.Sp == SpeciesH {
			hOrder = append(hOrder, of)
		} else {
			mOrder = append(mOrder, of)
		}
	}

	// walk processes fragment fr whose emission-first match is entry (or -1
	// for a chain start) under the forced orientation rev: its matches are
	// emitted in site order, reversed when rev.
	var walk func(fr FragRef, entry int, rev bool) error
	walk = func(fr FragRef, entry int, rev bool) error {
		if visited[fr.Sp][fr.Idx] {
			return fmt.Errorf("core: fragment %v revisited (cycle)", fr)
		}
		appearFrag(fr, rev)
		lst := ix.list(fr.Sp, fr.Idx)
		at := func(p int) int {
			if rev {
				return int(lst[len(lst)-1-p])
			}
			return int(lst[p])
		}
		if entry >= 0 && at(0) != entry {
			return fmt.Errorf("core: fragment %v: entry link not at emission start", fr)
		}
		for p := range lst {
			mi := at(p)
			if mi == entry {
				continue
			}
			mt := &sol.Matches[mi]
			partner := FragRef{Sp: fr.Sp.Other(), Idx: mt.Side(fr.Sp.Other()).Frag}
			partnerRev := rev != mt.Rev
			if isLink[mi] {
				if p != len(lst)-1 {
					return fmt.Errorf("core: fragment %v: exit link not at emission end", fr)
				}
				emitted[mi] = true
				matchOrder = append(matchOrder, mi)
				return walk(partner, mi, partnerRev)
			}
			emitted[mi] = true
			matchOrder = append(matchOrder, mi)
			appearFrag(partner, partnerRev)
		}
		return nil
	}

	for _, island := range ix.islands(sol, in) {
		// Gather the island's fragments, sorted H first.
		frags := ix.frags[:0]
		for _, mi := range island {
			frags = append(frags,
				FragRef{SpeciesH, sol.Matches[mi].HSite.Frag},
				FragRef{SpeciesM, sol.Matches[mi].MSite.Frag})
		}
		slices.SortFunc(frags, func(a, b FragRef) int {
			if a.Sp != b.Sp {
				return cmp.Compare(a.Sp, b.Sp)
			}
			return cmp.Compare(a.Idx, b.Idx)
		})
		frags = slices.Compact(frags)
		ix.frags = frags
		// Choose the walk start: a chain end when links exist, otherwise the
		// unique multiple fragment, otherwise the H side of the single match.
		var start FragRef
		found := false
		hasChain := false
		for _, fr := range frags {
			cd := chainDeg(fr.Sp, fr.Idx)
			if cd > 0 {
				hasChain = true
			}
			if cd == 1 && !found {
				start, found = fr, true
			}
		}
		if hasChain && !found {
			return nil, fmt.Errorf("core: island has a chain cycle")
		}
		if !found {
			for _, fr := range frags {
				if deg(fr.Sp, fr.Idx) >= 2 {
					start, found = fr, true
					break
				}
			}
		}
		if !found {
			start = frags[0] // single-match island; frags sorted H first
		}
		// Orient the start so its exit link (if any) is emission-last.
		rev := false
		lst := ix.list(start.Sp, start.Idx)
		for p, mi := range lst {
			if isLink[mi] {
				rev = p == 0 && len(lst) > 1
				break
			}
		}
		if err := walk(start, -1, rev); err != nil {
			return nil, err
		}
	}
	for i := range emitted {
		if !emitted[i] {
			return nil, fmt.Errorf("core: match %d not reachable by island walk", i)
		}
	}

	// Append unmatched fragments.
	for sp := SpeciesH; sp <= SpeciesM; sp++ {
		spc := Species(sp)
		for f := 0; f < in.NumFrags(spc); f++ {
			appearFrag(FragRef{spc, f}, false)
		}
	}

	return sol.assemble(in, ix, matchOrder, hOrder, mOrder)
}

// assemble lays out the two conjecture words column by column following the
// match emission order, pairing unmatched regions with ⊥. Each cursor holds
// its current fragment's oriented word in ix's buffer for its species.
func (sol *Solution) assemble(in *Instance, ix *siteIndex, matchOrder []int, hOrder, mOrder []OrientedFrag) (*Conjecture, error) {
	type cursor struct {
		sp   Species
		seq  []OrientedFrag
		fi   int // index into seq
		pos  int // position in the current oriented fragment word
		word symbol.Word
	}
	h := cursor{sp: SpeciesH, seq: hOrder}
	m := cursor{sp: SpeciesM, seq: mOrder}
	// A conjecture column holds a region of at least one side, so the
	// words are at most this long.
	n := 0
	for sp := SpeciesH; sp <= SpeciesM; sp++ {
		for _, f := range in.Frags(sp) {
			n += len(f.Regions)
		}
	}
	hw, mw := make(symbol.Word, 0, n), make(symbol.Word, 0, n)

	// load orients the cursor's current fragment into its word.
	load := func(c *cursor) {
		if c.fi < len(c.seq) {
			of := c.seq[c.fi]
			ix.words[c.sp] = in.Frag(c.sp, of.Frag).Regions.AppendOrient(ix.words[c.sp][:0], of.Rev)
			c.word = ix.words[c.sp]
		}
	}
	load(&h)
	load(&m)
	// emitH/emitM append one column with the other row padded.
	emitH := func(s symbol.Symbol) { hw = append(hw, s); mw = append(mw, symbol.Pad) }
	emitM := func(s symbol.Symbol) { hw = append(hw, symbol.Pad); mw = append(mw, s) }
	// flushTo advances a cursor to position p in its current fragment.
	flushTo := func(c *cursor, p int, emit func(symbol.Symbol)) error {
		w := c.word
		if p < c.pos || p > len(w) {
			return fmt.Errorf("core: assemble: matches out of order in fragment %v%d", c.sp, c.seq[c.fi].Frag)
		}
		for ; c.pos < p; c.pos++ {
			emit(w[c.pos])
		}
		return nil
	}
	// next moves a cursor to its next fragment.
	next := func(c *cursor) {
		c.fi++
		c.pos = 0
		load(c)
	}
	// advanceTo moves a cursor to the given fragment, flushing tails.
	advanceTo := func(c *cursor, frag int, emit func(symbol.Symbol)) error {
		for c.seq[c.fi].Frag != frag {
			if err := flushTo(c, len(c.word), emit); err != nil {
				return err
			}
			next(c)
			if c.fi >= len(c.seq) {
				return fmt.Errorf("core: assemble: fragment %v%d missing from layout", c.sp, frag)
			}
		}
		return nil
	}
	orientedSpan := func(sp Species, of OrientedFrag, s Site) (int, int) {
		n := in.Frag(sp, of.Frag).Len()
		if of.Rev {
			return n - s.Hi, n - s.Lo
		}
		return s.Lo, s.Hi
	}

	total := 0.0
	for _, mi := range matchOrder {
		mt := &sol.Matches[mi]
		if err := advanceTo(&h, mt.HSite.Frag, emitH); err != nil {
			return nil, err
		}
		if err := advanceTo(&m, mt.MSite.Frag, emitM); err != nil {
			return nil, err
		}
		hOF, mOF := h.seq[h.fi], m.seq[m.fi]
		if (hOF.Rev != mOF.Rev) != mt.Rev {
			return nil, fmt.Errorf("core: assemble: match %d orientation mismatch", mi)
		}
		hs, he := orientedSpan(SpeciesH, hOF, mt.HSite)
		ms, me := orientedSpan(SpeciesM, mOF, mt.MSite)
		if err := flushTo(&h, hs, emitH); err != nil {
			return nil, err
		}
		if err := flushTo(&m, ms, emitM); err != nil {
			return nil, err
		}
		hword := h.word[hs:he]
		mword := m.word[ms:me]
		sc, cols := ix.scr.Align(hword, mword, in.Sigma)
		// The emission orientation may reverse both words; the score is
		// equal by reversal symmetry but float summation order differs, so
		// compare with a relative tolerance.
		if d := sc - mt.Score; d > 1e-6*(1+mt.Score) || d < -1e-6*(1+mt.Score) {
			return nil, fmt.Errorf("core: assemble: match %d realizes %v, cached %v", mi, sc, mt.Score)
		}
		pi, pj := 0, 0
		for _, col := range cols {
			for ; pi < col.I; pi++ {
				emitH(hword[pi])
			}
			for ; pj < col.J; pj++ {
				emitM(mword[pj])
			}
			hw = append(hw, hword[pi])
			mw = append(mw, mword[pj])
			pi, pj = pi+1, pj+1
			total += col.Sigma
		}
		for ; pi < len(hword); pi++ {
			emitH(hword[pi])
		}
		for ; pj < len(mword); pj++ {
			emitM(mword[pj])
		}
		h.pos, m.pos = he, me
	}
	// Flush everything that remains.
	for h.fi < len(h.seq) {
		if err := flushTo(&h, len(h.word), emitH); err != nil {
			return nil, err
		}
		next(&h)
	}
	for m.fi < len(m.seq) {
		if err := flushTo(&m, len(m.word), emitM); err != nil {
			return nil, err
		}
		next(&m)
	}
	if len(hw) != len(mw) {
		return nil, fmt.Errorf("core: assemble: unequal conjecture lengths %d vs %d", len(hw), len(mw))
	}
	return &Conjecture{
		H: hw, M: mw,
		HOrder: hOrder, MOrder: mOrder,
		MatchOrder: matchOrder,
		Score:      total,
	}, nil
}

// ColumnScore recomputes Score(h, m) for two equal-length padded words by
// summing σ column-wise — the paper's Score function for conjecture pairs.
func ColumnScore(in *Instance, h, m symbol.Word) (float64, error) {
	if len(h) != len(m) {
		return 0, fmt.Errorf("core: column score of unequal lengths %d vs %d", len(h), len(m))
	}
	t := 0.0
	for i := range h {
		t += in.Sigma.Score(h[i], m[i])
	}
	return t, nil
}
