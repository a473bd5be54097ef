package seed

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/symbol"
)

// sigmaIndex is the seeding pipeline's column-wise view of σ: for every
// oriented symbol b it knows the best positive partner argmax_h σ(h, b)
// and the full positive-partner list. Both are distilled from the forward
// matrix's cached positive-row lists (Compiled.PosRow) in one
// sparse pass — the earlier implementation materialized the dense
// Transposed() matrix just to read its columns, which at genome scale
// (dim ≈ 20k) allocated ~3 GB and dominated the seeded wall with page
// faults. Total storage here is O(dim + stored positive cells): the
// partner lists are one CSR layout, counted, offset and filled in two
// passes over the rows. Mask and Candidates take one from sigmaPool and
// return it, so consecutive solves rebuild it in place.
type sigmaIndex struct {
	n    int32
	best []int32 // best[b+n] = argmax_h σ(h, b) over positive cells, 0 if none
	// The canonical IDs of b's positive partners, in σ-row order, are
	// flat[off[b+n]:off[b+n+1]].
	off  []int32
	flat []int32
	bv   []float64 // build's best σ so far per column
}

var sigmaPool = sync.Pool{New: func() any { return new(sigmaIndex) }}

// pooledSigmaIndex returns an index of sc from sigmaPool; release returns
// it.
func pooledSigmaIndex(sc score.Scorer) *sigmaIndex {
	x := sigmaPool.Get().(*sigmaIndex)
	x.build(sc)
	return x
}

func (x *sigmaIndex) release() { sigmaPool.Put(x) }

// build indexes sc in x, reusing x's storage. Rows arrive in ascending
// oriented-symbol order and a partner must beat the best so far strictly,
// so ties keep the smallest oriented partner — the same determinism the
// old transpose argmax had (its columns ascended too).
func (x *sigmaIndex) build(sc score.Scorer) {
	var m *score.Compiled
	switch c := sc.(type) {
	case *score.CompiledInt:
		// Partners rank by their quantized cells, as the quantized
		// search scores them.
		m = c.Compiled
	case *score.Compiled:
		m = c
	default:
		// Prepare always returns a compiled form; this path is unreachable
		// from Candidates but keeps the type total.
		m = score.Compile(sc, 0)
	}
	n := m.MaxID()
	dim := 2*int(n) + 1
	x.n = n
	x.best = slices.Grow(x.best[:0], dim)[:dim]
	x.bv = slices.Grow(x.bv[:0], dim)[:dim]
	x.off = slices.Grow(x.off[:0], dim+1)[:dim+1]
	clear(x.best)
	clear(x.bv)
	clear(x.off)
	for a := -n; a <= n; a++ {
		if a == 0 {
			continue // canonical ID 0 is no partner
		}
		cols, _ := m.PosRow(symbol.Symbol(a))
		for _, col := range cols {
			x.off[col+1]++
		}
	}
	for c := 1; c <= dim; c++ {
		x.off[c] += x.off[c-1]
	}
	cells := int(x.off[dim])
	x.flat = slices.Grow(x.flat[:0], cells)[:cells]
	// Fill each column at its cursor, kept in off[col] and shifted back
	// below.
	for a := -n; a <= n; a++ {
		cols, vals := m.PosRow(symbol.Symbol(a))
		canon := a
		if canon < 0 {
			canon = -canon
		}
		for k, col := range cols {
			if vals[k] > x.bv[col] {
				x.bv[col] = vals[k]
				x.best[col] = a
			}
			if canon != 0 {
				x.flat[x.off[col]] = canon
				x.off[col]++
			}
		}
	}
	copy(x.off[1:], x.off[:dim])
	x.off[0] = 0
}

func (x *sigmaIndex) maxID() int32 { return x.n }

func (x *sigmaIndex) inRange(ob int32) bool {
	return ob >= -x.n && ob <= x.n
}

// bestPartner returns the oriented H symbol maximizing σ(h, b) over positive
// cells, or 0 when b has no positive partner. Ties keep the smallest
// oriented symbol, so the translation is deterministic and independent of
// matrix internals.
func (x *sigmaIndex) bestPartner(ob int32) int32 {
	if !x.inRange(ob) {
		return 0
	}
	return x.best[ob+x.n]
}

// partnersCanon returns the canonical region IDs of every positive partner
// of oriented symbol ob (Mask's walk); nil when ob is out of range.
func (x *sigmaIndex) partnersCanon(ob int32) []int32 {
	if !x.inRange(ob) {
		return nil
	}
	c := ob + x.n
	return x.flat[x.off[c]:x.off[c+1]]
}

// mix64 is the 64-bit finalizer of MurmurHash3 — a cheap invertible mixer
// with full avalanche, used both to scramble single tokens and to finalize
// k-mer hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

const fnvOffset = 1469598103934665603
const fnvPrime = 1099511628211

// kmerHash hashes k tokens starting at toks[i]. Returns (0, false) when the
// window contains a hole (token 0: a pad, or an M symbol with no positive σ
// partner) — holes break k-mers, they never match anything.
func kmerHash(toks []int32, i, k int) (uint64, bool) {
	h := uint64(fnvOffset)
	for _, t := range toks[i : i+k] {
		if t == 0 {
			return 0, false
		}
		h = (h ^ mix64(uint64(uint32(t)))) * fnvPrime
	}
	return mix64(h ^ uint64(k)), true
}

// minimizers appends the (w-window) minimizer positions of the k-mers of
// toks to dst as (hash, pos) pairs: within every window of w consecutive
// k-mer starts, the smallest valid hash is selected (leftmost on ties), and
// consecutive duplicate selections are emitted once. With w = 1 every valid
// k-mer is emitted.
func minimizers(toks []int32, k, w int, hashes []uint64, dst []minmer) ([]uint64, []minmer) {
	n := len(toks) - k + 1
	if n <= 0 {
		return hashes, dst
	}
	if cap(hashes) < n {
		hashes = make([]uint64, n)
	}
	hashes = hashes[:n]
	for i := 0; i < n; i++ {
		h, ok := kmerHash(toks, i, k)
		if !ok {
			h = holeHash
		}
		hashes[i] = h
	}
	lastPos := -1
	for lo := 0; lo < n; lo += 1 {
		hi := lo + w
		if hi > n {
			hi = n
		}
		best, bestPos := holeHash, -1
		for i := lo; i < hi; i++ {
			if hashes[i] < best {
				best = hashes[i]
				bestPos = i
			}
		}
		if bestPos >= 0 && bestPos != lastPos {
			dst = append(dst, minmer{hash: best, pos: int32(bestPos)})
			lastPos = bestPos
		}
		if hi == n {
			break
		}
	}
	return hashes, dst
}

// holeHash marks an invalid k-mer position; it is never selected as a
// minimizer (it compares greater than every real hash, and a window of only
// holes selects nothing).
const holeHash = ^uint64(0)

type minmer struct {
	hash uint64
	pos  int32
}

type posting struct {
	frag int32
	pos  int32
}

// index is the multi-level minimizer index over the H fragments. Level k
// holds k-token seeds; fragment f is indexed at a single level
// min(K, len(f)), so fragments shorter than K (ubiquitous after heavy
// fragmentation) still produce seeds instead of falling out of the index.
// Queries probe every populated level. A level is a flat list of entries
// sorted by hash, one hash's postings in indexing order; the index and its
// token buffers come from indexPool, so a solve's seeding rebuilds them in
// place.
type index struct {
	p      Params
	levels [][]entry // levels[k] is empty when no fragment uses k

	// Token, hash and minimizer buffers of build and queryFrag, and
	// Candidates' anchor, chaining, pair and verification buffers.
	toks    []int32
	hashes  []uint64
	mms     []minmer
	anchors []Anchor
	cs      chainScratch
	pairs   []seedPair
	verify  verifyScratch
}

// entry is one indexed minimizer: its hash and posting.
type entry struct {
	hash uint64
	posting
}

var indexPool = sync.Pool{New: func() any { return new(index) }}

func (idx *index) release() { indexPool.Put(idx) }

// build indexes in's H fragments, reusing idx's storage.
func (idx *index) build(in *core.Instance, p Params, st *Stats) {
	idx.p = p
	if cap(idx.levels) < p.K+1 {
		idx.levels = append(idx.levels[:cap(idx.levels)], make([][]entry, p.K+1-cap(idx.levels))...)
	}
	idx.levels = idx.levels[:p.K+1]
	for k := range idx.levels {
		idx.levels[k] = idx.levels[k][:0]
	}
	for hi := 0; hi < in.NumFrags(core.SpeciesH); hi++ {
		w := in.Frag(core.SpeciesH, hi).Regions
		if len(w) == 0 {
			continue
		}
		k := min(p.K, len(w))
		idx.toks = idx.toks[:0]
		for _, s := range w {
			idx.toks = append(idx.toks, int32(s)) // H tokens are the oriented symbols themselves
		}
		idx.hashes, idx.mms = minimizers(idx.toks, k, p.W, idx.hashes, idx.mms[:0])
		for _, mm := range idx.mms {
			idx.levels[k] = append(idx.levels[k], entry{hash: mm.hash, posting: posting{frag: int32(hi), pos: mm.pos}})
		}
		st.Minimizers += len(idx.mms)
	}
	for k, lv := range idx.levels {
		slices.SortStableFunc(lv, func(a, b entry) int { return cmp.Compare(a.hash, b.hash) })
		if p.MaxFreq > 0 {
			// Drop every hash whose postings list exceeds the cap.
			kept := lv[:0]
			for lo := 0; lo < len(lv); {
				hi := lo + 1
				for hi < len(lv) && lv[hi].hash == lv[lo].hash {
					hi++
				}
				if hi-lo > p.MaxFreq {
					st.Capped++
				} else {
					kept = append(kept, lv[lo:hi]...)
				}
				lo = hi
			}
			lv = kept
		}
		idx.levels[k] = lv
	}
}

// postings returns the entries of hash h in level lv.
func postings(lv []entry, h uint64) []entry {
	lo, _ := slices.BinarySearchFunc(lv, h, func(e entry, h uint64) int { return cmp.Compare(e.hash, h) })
	hi := lo
	for hi < len(lv) && lv[hi].hash == h {
		hi++
	}
	return lv[lo:hi]
}

// queryFrag translates M fragment mi into H-token space through σ and probes
// every index level in both orientations, appending the resulting anchors to
// dst. Reverse-orientation anchors carry positions in the reversed M word;
// the chainer's caller maps their windows back to forward coordinates.
func (idx *index) queryFrag(in *core.Instance, sx *sigmaIndex, mi int, dst []Anchor) []Anchor {
	w := in.Frag(core.SpeciesM, mi).Regions
	if len(w) == 0 {
		return dst
	}
	for _, rev := range [2]bool{false, true} {
		toks := idx.toks[:0]
		if rev {
			for j := len(w) - 1; j >= 0; j-- {
				toks = append(toks, sx.bestPartner(int32(w[j].Rev())))
			}
		} else {
			for _, s := range w {
				toks = append(toks, sx.bestPartner(int32(s)))
			}
		}
		idx.toks = toks
		for k := 1; k < len(idx.levels); k++ {
			lv := idx.levels[k]
			if len(lv) == 0 || len(toks) < k {
				continue
			}
			idx.hashes, idx.mms = minimizers(toks, k, idx.p.W, idx.hashes, idx.mms[:0])
			for _, mm := range idx.mms {
				for _, ps := range postings(lv, mm.hash) {
					dst = append(dst, Anchor{
						H:    ps.frag,
						PosH: ps.pos,
						PosM: mm.pos,
						Len:  int32(k),
						Rev:  rev,
					})
				}
			}
		}
	}
	return dst
}

// verifyScratch re-scores chain windows through the alignment kernels, on
// whichever compiled σ form the instance prepared, orienting M windows in
// its own buffer.
type verifyScratch struct {
	scr       align.Scratch
	sc        score.Scorer
	quantized bool
	ori       symbol.Word
}

// init readies v for the instance's σ.
func (v *verifyScratch) init(in *core.Instance) {
	v.sc = score.Prepare(in.Sigma, in.MaxSymbolID())
	_, v.quantized = v.sc.(*score.CompiledInt)
}

// release drops v's reference to σ.
func (v *verifyScratch) release() { v.sc = nil }

// positive reports whether the chain's window on pair (h, m), extended by
// the band slack, aligns to a positive score. The quantized form scores the
// whole window; the float64 form runs the banded DP.
func (v *verifyScratch) positive(in *core.Instance, p Params, h, m int, ch Chain) bool {
	hw := in.Frag(core.SpeciesH, h).Regions
	mw := in.Frag(core.SpeciesM, m).Regions
	hLo, hHi := max(0, ch.HLo-p.Band), min(len(hw), ch.HHi+p.Band)
	mLo, mHi := max(0, ch.MLo-p.Band), min(len(mw), ch.MHi+p.Band)
	if hLo >= hHi || mLo >= mHi {
		return false
	}
	a := hw[hLo:hHi]
	v.ori = mw[mLo:mHi].AppendOrient(v.ori[:0], ch.Rev)
	b := v.ori
	if v.quantized {
		return v.scr.Score(a, b, v.sc) > 0
	}
	band := len(a) - len(b)
	if band < 0 {
		band = -band
	}
	return v.scr.ScoreBanded(a, b, v.sc, band+p.Band) > 0
}
