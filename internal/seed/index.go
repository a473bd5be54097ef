package seed

import (
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
// faults. Total storage here is O(dim + stored positive cells).
type sigmaIndex struct {
	n        int32
	best     []int32   // best[b+n] = argmax_h σ(h, b) over positive cells, 0 if none
	partners [][]int32 // partners[b+n] = canonical IDs of positive partners, σ-row order
}

func newSigmaIndex(sc score.Scorer) sigmaIndex {
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
	x := newEmptySigmaIndex(n)
	bv := make([]float64, 2*int(n)+1)
	for a := -n; a <= n; a++ {
		cols, vals := m.PosRow(symbol.Symbol(a))
		x.addRow(a, cols, func(k int) bool { return vals[k] > bv[cols[k]] },
			func(k int) { bv[cols[k]] = vals[k] })
	}
	return x
}

func newEmptySigmaIndex(n int32) sigmaIndex {
	dim := 2*int(n) + 1
	return sigmaIndex{n: n, best: make([]int32, dim), partners: make([][]int32, dim)}
}

// addRow folds row a's positive columns into the column-wise tables. Rows
// arrive in ascending oriented-symbol order and beats uses a strict >, so
// ties keep the smallest oriented partner — the same determinism the old
// transpose argmax had (its columns ascended too).
func (x *sigmaIndex) addRow(a int32, cols []int32, beats func(k int) bool, record func(k int)) {
	canon := a
	if canon < 0 {
		canon = -canon
	}
	for k, col := range cols {
		if beats(k) {
			record(k)
			x.best[col] = a
		}
		if canon != 0 {
			x.partners[col] = append(x.partners[col], canon)
		}
	}
}

func (x sigmaIndex) maxID() int32 { return x.n }

func (x sigmaIndex) inRange(ob int32) bool {
	return ob >= -x.n && ob <= x.n
}

// bestPartner returns the oriented H symbol maximizing σ(h, b) over positive
// cells, or 0 when b has no positive partner. Ties keep the smallest
// oriented symbol, so the translation is deterministic and independent of
// matrix internals.
func (x sigmaIndex) bestPartner(ob int32) int32 {
	if !x.inRange(ob) {
		return 0
	}
	return x.best[ob+x.n]
}

// partnersCanon returns the canonical region IDs of every positive partner
// of oriented symbol ob (Mask's walk); nil when ob is out of range.
func (x sigmaIndex) partnersCanon(ob int32) []int32 {
	if !x.inRange(ob) {
		return nil
	}
	return x.partners[ob+x.n]
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
// Queries probe every populated level.
type index struct {
	p      Params
	levels []map[uint64][]posting // levels[k] is nil when no fragment uses k
}

func buildIndex(in *core.Instance, p Params, st *Stats) *index {
	idx := &index{p: p, levels: make([]map[uint64][]posting, p.K+1)}
	var (
		toks   []int32
		hashes []uint64
		mms    []minmer
	)
	for hi := 0; hi < in.NumFrags(core.SpeciesH); hi++ {
		w := in.Frag(core.SpeciesH, hi).Regions
		if len(w) == 0 {
			continue
		}
		k := min(p.K, len(w))
		toks = toks[:0]
		for _, s := range w {
			toks = append(toks, int32(s)) // H tokens are the oriented symbols themselves
		}
		mms = mms[:0]
		hashes, mms = minimizers(toks, k, p.W, hashes, mms)
		if len(mms) == 0 {
			continue
		}
		lv := idx.levels[k]
		if lv == nil {
			lv = make(map[uint64][]posting)
			idx.levels[k] = lv
		}
		for _, mm := range mms {
			lv[mm.hash] = append(lv[mm.hash], posting{frag: int32(hi), pos: mm.pos})
		}
		st.Minimizers += len(mms)
	}
	if p.MaxFreq > 0 {
		for _, lv := range idx.levels {
			for h, ps := range lv {
				if len(ps) > p.MaxFreq {
					delete(lv, h)
					st.Capped++
				}
			}
		}
	}
	return idx
}

// queryFrag translates M fragment mi into H-token space through σ and probes
// every index level in both orientations, appending the resulting anchors to
// dst. Reverse-orientation anchors carry positions in the reversed M word;
// the chainer's caller maps their windows back to forward coordinates.
func (idx *index) queryFrag(in *core.Instance, sx sigmaIndex, mi int, dst []Anchor) []Anchor {
	w := in.Frag(core.SpeciesM, mi).Regions
	if len(w) == 0 {
		return dst
	}
	var (
		toks   []int32
		hashes []uint64
		mms    []minmer
	)
	for _, rev := range [2]bool{false, true} {
		toks = toks[:0]
		if rev {
			for j := len(w) - 1; j >= 0; j-- {
				toks = append(toks, sx.bestPartner(int32(w[j].Rev())))
			}
		} else {
			for _, s := range w {
				toks = append(toks, sx.bestPartner(int32(s)))
			}
		}
		for k := 1; k < len(idx.levels); k++ {
			lv := idx.levels[k]
			if lv == nil || len(toks) < k {
				continue
			}
			mms = mms[:0]
			hashes, mms = minimizers(toks, k, idx.p.W, hashes, mms)
			for _, mm := range mms {
				for _, ps := range lv[mm.hash] {
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
// whichever compiled σ form the instance prepared.
type verifyScratch struct {
	scr       *align.Scratch
	sc        score.Scorer
	quantized bool
}

func newVerifyScratch(in *core.Instance) *verifyScratch {
	sc := score.Prepare(in.Sigma, in.MaxSymbolID())
	_, quantized := sc.(*score.CompiledInt)
	return &verifyScratch{scr: align.NewScratch(), sc: sc, quantized: quantized}
}

func (v *verifyScratch) release() { v.scr.Release() }

// positive reports whether the chain's window, extended by the band slack,
// aligns to a positive score. The quantized form scores the whole window;
// the float64 form runs the banded DP.
func (v *verifyScratch) positive(in *core.Instance, p Params, pr Pair, ch Chain) bool {
	hw := in.Frag(core.SpeciesH, pr.H).Regions
	mw := in.Frag(core.SpeciesM, pr.M).Regions
	hLo, hHi := max(0, ch.HLo-p.Band), min(len(hw), ch.HHi+p.Band)
	mLo, mHi := max(0, ch.MLo-p.Band), min(len(mw), ch.MHi+p.Band)
	if hLo >= hHi || mLo >= mHi {
		return false
	}
	a := hw[hLo:hHi]
	b := mw[mLo:mHi].Orient(ch.Rev)
	if v.quantized {
		return v.scr.Score(a, b, v.sc) > 0
	}
	band := len(a) - len(b)
	if band < 0 {
		band = -band
	}
	return v.scr.ScoreBanded(a, b, v.sc, band+p.Band) > 0
}
