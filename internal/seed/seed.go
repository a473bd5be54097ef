// Package seed builds the candidate fragment-pair universe of an improve
// solve. Mask is the complete positive-σ universe of a classic solve;
// Candidates is minimizer-seeded sparse candidate generation for
// genome-scale CSR instances: the seed-and-chain pipeline that shrinks the
// universe further with an O(anchors log anchors) sweep.
//
// The seeding pipeline has three stages:
//
//  1. A minimizer index over the H fragment words: (k, w)-minimizers of each
//     word's oriented-symbol token sequence, hashed into an inverted index,
//     with postings lists longer than a frequency cap dropped (repetitive
//     seeds carry no pairing signal).
//  2. Anchor matching: each M fragment is translated into H-token space
//     through σ (for an oriented M symbol b, its token is the positive-σ
//     partner argmax_h σ(h, b); species words share no literal symbols, so
//     cross-species k-mer identity only exists through σ), queried against
//     the index in both orientations, and every postings hit becomes an
//     anchor (fragH, fragM, posH, posM, len, rev).
//  3. An O(n log n) sweep-line colinear chainer per fragment pair and
//     orientation (chain.go, backed by fenwick.MaxTree) scores anchor
//     chains under a decomposable gap penalty and keeps the best chain per
//     orientation; surviving chains optionally verify their window through
//     the existing ScoreBanded (float64 σ) or Score (quantized σ) kernels
//     before the pair is admitted.
//
// The output is a sparse fragment-pair set (plus per-pair chain windows)
// that the improve driver consumes as its candidate universe
// (improve.Options.Seeded): pairs without anchors are never enumerated,
// which is what opens the 5–50k-region regime.
//
// Mask admits a pair (f, g) iff some symbol of g has a positive σ cell
// against some symbol of f in either orientation class. Any I1/I2/I3
// attempt or TPA placement on a pair without such a cell aligns to nothing
// and gains ≤ 0, so restricting enumeration to this mask is bit-identical
// to all-pairs enumeration — the parity the improve package's dense-oracle
// test enforces (TestMaskMatchesDenseUniverse).
package seed

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/score"
)

// Params tunes the seeding pipeline. The zero value is not useful; start
// from DefaultParams.
type Params struct {
	// K is the k-mer length in regions (tokens). Fragments shorter than K
	// are indexed whole, at level min(K, len) — see index.go.
	K int
	// W is the minimizer window: one k-mer is selected out of every W
	// consecutive ones. W=1 indexes every k-mer (full sensitivity).
	W int
	// MaxFreq drops minimizers whose postings list exceeds it (repetitive
	// seeds). ≤ 0 disables the cap.
	MaxFreq int
	// Gap is the chain gap penalty per skipped region (both axes).
	Gap float64
	// Band is the extra half-width added to a chain window's banded
	// verification alignment, and the slack the window is extended by.
	Band int
	// Verify re-scores each surviving chain window through the alignment
	// kernels (ScoreBanded on float64 σ, Score on a quantized σ) and drops
	// pairs whose window aligns to nothing.
	Verify bool
}

// DefaultParams returns the tuning used by the genome presets: 3-region
// seeds, 4-wide winnowing, a generous frequency cap, and banded
// verification on.
func DefaultParams() Params {
	return Params{K: 3, W: 4, MaxFreq: 64, Gap: 0.5, Band: 8, Verify: true}
}

func (p Params) sanitized() Params {
	if p.K < 1 {
		p.K = 1
	}
	if p.W < 1 {
		p.W = 1
	}
	if p.Gap < 0 {
		p.Gap = 0
	}
	if p.Band < 0 {
		p.Band = 0
	}
	return p
}

// Chain is one surviving anchor chain of a pair: its score and the window
// it spans on both fragments (M in forward coordinates).
type Chain struct {
	Rev      bool
	Score    float64
	Anchors  int
	HLo, HHi int
	MLo, MHi int
}

// Pair is one admitted fragment pair with its surviving chains (best per
// orientation, best-first).
type Pair struct {
	H, M   int
	Chains []Chain
}

// Stats reports the pipeline's funnel.
type Stats struct {
	// Minimizers indexed over the H fragments; Capped postings lists were
	// dropped by the frequency cap.
	Minimizers int
	Capped     int
	// Anchors emitted by index queries.
	Anchors int
	// AnchoredPairs is the number of distinct pairs sharing ≥ 1 minimizer.
	AnchoredPairs int
	// Pairs survive chain scoring and verification — the driver's candidate
	// universe.
	Pairs int
}

// Result is the seeding output: the admitted pairs, sorted by (H, M).
type Result struct {
	Pairs []Pair
	Stats Stats
}

// Candidates runs the seeding pipeline over the instance. σ is prepared
// (compiled) if the instance has not already done so; the improve
// driver passes instances whose Sigma is the solve's shared matrix, so no
// extra compilation happens there.
func Candidates(in *core.Instance, p Params) *Result {
	p = p.sanitized()
	sx := pooledSigmaIndex(score.Prepare(in.Sigma, in.MaxSymbolID()))
	defer sx.release()
	res := &Result{}
	idx := indexPool.Get().(*index)
	defer idx.release()
	idx.build(in, p, &res.Stats)
	// Pairs are built in idx's buffer, then copied out at their exact size.
	pairs, anchors, cs := idx.pairs[:0], idx.anchors[:0], &idx.cs
	defer func() { idx.pairs, idx.anchors = pairs[:0], anchors[:0] }()
	for mi := 0; mi < in.NumFrags(core.SpeciesM); mi++ {
		anchors = idx.queryFrag(in, sx, mi, anchors[:0])
		res.Stats.Anchors += len(anchors)
		if len(anchors) == 0 {
			continue
		}
		SortAnchors(anchors)
		lenM := in.Frag(core.SpeciesM, mi).Len()
		// Walk the (H, rev) groups of this M fragment's sorted anchors.
		for lo := 0; lo < len(anchors); {
			hi := lo + 1
			for hi < len(anchors) && anchors[hi].H == anchors[lo].H && anchors[hi].Rev == anchors[lo].Rev {
				hi++
			}
			ch := chainBest(anchors[lo:hi], p.Gap, cs)
			if anchors[lo].Rev {
				// Chain coordinates are in the reversed M word; flip the
				// window back to forward coordinates.
				ch.MLo, ch.MHi = lenM-ch.MHi, lenM-ch.MLo
			}
			hIdx := int(anchors[lo].H)
			if n := len(pairs); n == 0 || pairs[n-1].h != hIdx || pairs[n-1].m != mi {
				pairs = append(pairs, seedPair{h: hIdx, m: mi})
			}
			pairs[len(pairs)-1].add(ch)
			lo = hi
		}
	}
	// The loop above merges consecutive (H, M) duplicates, so every entry
	// is a distinct anchored pair.
	res.Stats.AnchoredPairs = len(pairs)
	if p.Verify {
		pairs = verifyPairs(in, p, pairs, &idx.verify)
	}
	slices.SortFunc(pairs, func(a, b seedPair) int {
		if a.h != b.h {
			return cmp.Compare(a.h, b.h)
		}
		return cmp.Compare(a.m, b.m)
	})
	if len(pairs) > 0 {
		total := 0
		for _, pr := range pairs {
			total += pr.n
		}
		chains := make([]Chain, 0, total)
		res.Pairs = make([]Pair, len(pairs))
		for i, pr := range pairs {
			at := len(chains)
			chains = append(chains, pr.chains[:pr.n]...)
			res.Pairs[i] = Pair{H: pr.h, M: pr.m, Chains: chains[at:len(chains):len(chains)]}
		}
	}
	res.Stats.Pairs = len(pairs)
	return res
}

// seedPair is an anchored pair while Candidates builds it: its chains, at
// most one per orientation, best-first.
type seedPair struct {
	h, m   int
	chains [2]Chain
	n      int
}

// add keeps the pair's chain list best-first (ties keep insertion order:
// forward before reverse).
func (pr *seedPair) add(ch Chain) {
	c := pr.chains[:pr.n+1]
	c[pr.n] = ch
	pr.n++
	for i := len(c) - 1; i > 0 && c[i].Score > c[i-1].Score; i-- {
		c[i], c[i-1] = c[i-1], c[i]
	}
}

// verifyPairs re-scores each pair's chain windows through the banded
// kernels, dropping chains (and pairs) whose window aligns to nothing. The
// H window is the alignment's first word, so σ is used H-first exactly as
// the improve attempts do.
func verifyPairs(in *core.Instance, p Params, pairs []seedPair, v *verifyScratch) []seedPair {
	v.init(in)
	defer v.release()
	out := pairs[:0]
	for _, pr := range pairs {
		kept := 0
		for _, ch := range pr.chains[:pr.n] {
			if v.positive(in, p, pr.h, pr.m, ch) {
				pr.chains[kept] = ch
				kept++
			}
		}
		if kept > 0 {
			pr.n = kept
			out = append(out, pr)
		}
	}
	return out
}

// PairList flattens the result into (H, M) index pairs — the improve
// driver's PairSet input.
func (r *Result) PairList() [][2]int32 {
	out := make([][2]int32, len(r.Pairs))
	for i, p := range r.Pairs {
		out[i] = [2]int32{int32(p.H), int32(p.M)}
	}
	return out
}

// Mask returns the complete positive-σ pair mask as (H index, M index)
// pairs: (f, g) is admitted iff some symbol of g scores positively against
// some symbol of f in either orientation class. The mask is a superset of
// every pair any improvement attempt or TPA placement can extract a
// positive alignment from, which is what makes a search under it
// bit-identical to all-pairs enumeration. Each pair appears once, grouped
// by M fragment in no particular H order (PairSet.Reset sorts them). σ
// is prepared (compiled) if the instance has not already done so.
func Mask(in *core.Instance) [][2]int32 {
	sx := pooledSigmaIndex(score.Prepare(in.Sigma, in.MaxSymbolID()))
	defer sx.release()
	nh := in.NumFrags(core.SpeciesH)
	// Index H fragments by the canonical region IDs they contain.
	byCanon := make([][]int32, sx.maxID()+1)
	for hi := 0; hi < nh; hi++ {
		for _, s := range in.Frag(core.SpeciesH, hi).Regions {
			id := s.ID()
			if id <= 0 || int(id) >= len(byCanon) {
				continue
			}
			if l := byCanon[id]; len(l) == 0 || l[len(l)-1] != int32(hi) {
				byCanon[id] = append(byCanon[id], int32(hi))
			}
		}
	}
	stamp := make([]int32, nh)
	for i := range stamp {
		stamp[i] = -1
	}
	var pairs [][2]int32
	for mi := 0; mi < in.NumFrags(core.SpeciesM); mi++ {
		for _, b := range in.Frag(core.SpeciesM, mi).Regions {
			// b's list holds the canonical ID of every oriented row a with
			// σ(a, b) > 0, and σ(a, bᴿ) = σ(aᴿ, b) by reversal symmetry, so
			// it covers both orientation classes: bᴿ's list is the same set.
			for _, id := range sx.partnersCanon(int32(b)) {
				for _, hi := range byCanon[id] {
					if stamp[hi] != int32(mi) {
						stamp[hi] = int32(mi)
						pairs = append(pairs, [2]int32{hi, int32(mi)})
					}
				}
			}
		}
	}
	return pairs
}
