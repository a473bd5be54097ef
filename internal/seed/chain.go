package seed

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/fenwick"
)

// Anchor is one exact seed hit between an H fragment and an oriented M
// fragment: k tokens starting at PosH on the H word and PosM on the
// (possibly reversed) M word.
type Anchor struct {
	H    int32
	PosH int32
	PosM int32
	Len  int32
	Rev  bool
}

// SortAnchors orders anchors by (H, Rev, PosH, PosM, Len) — the grouping
// and sweep order chainBest requires (forward groups before reverse).
func SortAnchors(a []Anchor) {
	slices.SortFunc(a, func(x, y Anchor) int {
		if x.H != y.H {
			return cmp.Compare(x.H, y.H)
		}
		if x.Rev != y.Rev {
			if y.Rev {
				return -1
			}
			return 1
		}
		if x.PosH != y.PosH {
			return cmp.Compare(x.PosH, y.PosH)
		}
		if x.PosM != y.PosM {
			return cmp.Compare(x.PosM, y.PosM)
		}
		return cmp.Compare(x.Len, y.Len)
	})
}

// chainScratch holds the chainer's reusable buffers: the prefix-max tree
// over M end positions, per-anchor DP values and parents, and the pending
// insertion order.
type chainScratch struct {
	tree   *fenwick.MaxTree
	f      []float64
	parent []int32
	byHEnd []int32
}

// chainBest finds the maximum-score colinear chain over one sorted anchor
// group (same H fragment and orientation; ascending (PosH, PosM)).
//
// Chain score is Σ len(aᵢ) − gap·Σ (gapH(i) + gapM(i)) where the gaps are
// the distances between consecutive anchor starts and the previous anchor's
// ends: anchor p may precede c when p.hEnd ≤ c.PosH and p.mEnd ≤ c.PosM
// (strictly colinear, non-overlapping on both axes). Because the penalty is
// decomposable — gap cost = gap·(c.PosH + c.PosM) − gap·(p.hEnd + p.mEnd) —
// the best predecessor only depends on the prefix maximum of
// v(p) = f(p) + gap·(p.hEnd + p.mEnd) over eligible p, which a prefix-max
// tree over M end positions answers in O(log n): anchors are swept in
// (PosH, PosM) order and inserted into the tree once their hEnd falls
// behind the sweep (the byHEnd two-pointer), so the tree always contains
// exactly the hEnd-eligible anchors and the query PrefixMax(c.PosM+1)
// applies the mEnd constraint. O(n log n) overall.
//
// Ties break deterministically toward the smallest anchor index (both in
// the tree and in the final best pick), and a predecessor is taken only
// when it strictly improves on starting fresh — chainBestBrute mirrors
// these rules expression-for-expression, which is what makes the oracle
// test an exact float comparison.
func chainBest(anchors []Anchor, gap float64, cs *chainScratch) Chain {
	n := len(anchors)
	if n == 0 {
		return Chain{}
	}
	maxMEnd := 0
	for _, a := range anchors {
		if e := int(a.PosM + a.Len); e > maxMEnd {
			maxMEnd = e
		}
	}
	if cs.tree == nil || cs.tree.Len() < maxMEnd+1 {
		cs.tree = fenwick.NewMax(maxMEnd + 1)
	} else {
		cs.tree.Reset()
	}
	if cap(cs.f) < n {
		cs.f = make([]float64, n)
		cs.parent = make([]int32, n)
		cs.byHEnd = make([]int32, n)
	}
	f, parent, byHEnd := cs.f[:n], cs.parent[:n], cs.byHEnd[:n]
	for i := range byHEnd {
		byHEnd[i] = int32(i)
	}
	slices.SortFunc(byHEnd, func(x, y int32) int {
		ex := anchors[x].PosH + anchors[x].Len
		ey := anchors[y].PosH + anchors[y].Len
		if ex != ey {
			return cmp.Compare(ex, ey)
		}
		return cmp.Compare(x, y)
	})
	bestIdx, bestF := 0, 0.0
	p := 0
	for i, a := range anchors {
		// Delayed insertion: an anchor enters the tree only once its H end
		// is at or behind the sweep front — its f is final by then, since
		// hEnd ≤ a.PosH implies it precedes a in (PosH, PosM) order.
		for p < n {
			j := byHEnd[p]
			pj := anchors[j]
			hEnd := pj.PosH + pj.Len
			if hEnd > a.PosH {
				break
			}
			mEnd := pj.PosM + pj.Len
			cs.tree.Update(int(mEnd), f[j]+gap*float64(hEnd+mEnd), j)
			p++
		}
		q, id := cs.tree.PrefixMax(int(a.PosM) + 1)
		fi := float64(a.Len)
		par := int32(-1)
		if id >= 0 {
			if cand := q - gap*float64(a.PosH+a.PosM); cand > 0 {
				fi += cand
				par = id
			}
		}
		f[i], parent[i] = fi, par
		if fi > bestF || i == 0 {
			bestF, bestIdx = fi, i
		}
	}
	// Backtrack to the chain's first anchor for the window span.
	first, count := int32(bestIdx), 1
	for parent[first] >= 0 {
		first = parent[first]
		count++
	}
	fa, la := anchors[first], anchors[bestIdx]
	return Chain{
		Rev:     la.Rev,
		Score:   bestF,
		Anchors: count,
		HLo:     int(fa.PosH),
		HHi:     int(la.PosH + la.Len),
		MLo:     int(fa.PosM),
		MHi:     int(la.PosM + la.Len),
	}
}

// chainBestBrute is the O(n²) reference chainer: identical grouping,
// predecessor rule, float expressions, and tie-breaks as chainBest, so the
// two agree bit-for-bit on any sorted group (the oracle test's contract).
func chainBestBrute(anchors []Anchor, gap float64) Chain {
	n := len(anchors)
	if n == 0 {
		return Chain{}
	}
	f := make([]float64, n)
	parent := make([]int32, n)
	bestIdx, bestF := 0, 0.0
	for i, a := range anchors {
		q, id := math.Inf(-1), int32(-1)
		for j := 0; j < i; j++ {
			pj := anchors[j]
			hEnd, mEnd := pj.PosH+pj.Len, pj.PosM+pj.Len
			if hEnd > a.PosH || mEnd > a.PosM {
				continue
			}
			if v := f[j] + gap*float64(hEnd+mEnd); v > q {
				q, id = v, int32(j)
			}
		}
		fi := float64(a.Len)
		par := int32(-1)
		if id >= 0 {
			if cand := q - gap*float64(a.PosH+a.PosM); cand > 0 {
				fi += cand
				par = id
			}
		}
		f[i], parent[i] = fi, par
		if fi > bestF || i == 0 {
			bestF, bestIdx = fi, i
		}
	}
	first, count := int32(bestIdx), 1
	for parent[first] >= 0 {
		first = parent[first]
		count++
	}
	fa, la := anchors[first], anchors[bestIdx]
	return Chain{
		Rev:     la.Rev,
		Score:   bestF,
		Anchors: count,
		HLo:     int(fa.PosH),
		HHi:     int(la.PosH + la.Len),
		MLo:     int(fa.PosM),
		MHi:     int(la.PosM + la.Len),
	}
}
