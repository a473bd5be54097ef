package seed

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/score"
	"repro/internal/symbol"
)

// randGroup builds one sorted anchor group (same H fragment, same
// orientation) with n anchors on an L×L grid and lengths in [1, 3].
func randGroup(r *rand.Rand, n, L int) []Anchor {
	a := make([]Anchor, n)
	for i := range a {
		a[i] = Anchor{
			H:    7,
			PosH: int32(r.Intn(L)),
			PosM: int32(r.Intn(L)),
			Len:  int32(1 + r.Intn(3)),
		}
	}
	SortAnchors(a)
	return a
}

// TestChainerOracle checks the sweep-line chainer against the O(n²) brute
// reference for exact equality — score bit-for-bit, same chain length, same
// window — across random groups up to 64 anchors.
func TestChainerOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gaps := []float64{0, 0.25, 0.5, 1, 2}
	var cs chainScratch
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(64)
		L := 4 + r.Intn(40)
		anchors := randGroup(r, n, L)
		gap := gaps[trial%len(gaps)]
		got := chainBest(anchors, gap, &cs)
		want := chainBestBrute(anchors, gap)
		if got != want {
			t.Fatalf("trial %d (n=%d L=%d gap=%v):\n got %+v\nwant %+v\nanchors %+v",
				trial, n, L, gap, got, want, anchors)
		}
	}
}

// TestChainerColinear checks a clean diagonal chains end to end.
func TestChainerColinear(t *testing.T) {
	anchors := []Anchor{
		{PosH: 0, PosM: 0, Len: 3},
		{PosH: 3, PosM: 3, Len: 3},
		{PosH: 6, PosM: 6, Len: 3},
	}
	var cs chainScratch
	ch := chainBest(anchors, 0.5, &cs)
	if ch.Anchors != 3 || ch.Score != 9 || ch.HLo != 0 || ch.HHi != 9 || ch.MLo != 0 || ch.MHi != 9 {
		t.Fatalf("colinear chain = %+v", ch)
	}
	// Crossing anchors cannot extend the chain.
	anchors = append(anchors, Anchor{PosH: 9, PosM: 0, Len: 3})
	SortAnchors(anchors)
	ch = chainBest(anchors, 0.5, &cs)
	if ch.Anchors != 3 || ch.Score != 9 {
		t.Fatalf("crossed chain = %+v", ch)
	}
}

// crossInstance builds a two-species instance over regions 0..n-1 where
// σ(H_i, M_i) = 10: the seed translation maps M_i to H_i exactly.
func crossInstance(hFrags, mFrags [][]int) (*core.Instance, []symbol.Symbol, []symbol.Symbol) {
	al := symbol.NewAlphabet()
	tb := score.NewTable()
	maxR := 0
	for _, f := range append(append([][]int{}, hFrags...), mFrags...) {
		for _, r := range f {
			if r > maxR {
				maxR = r
			}
		}
	}
	h := make([]symbol.Symbol, maxR+1)
	m := make([]symbol.Symbol, maxR+1)
	for i := 0; i <= maxR; i++ {
		h[i] = al.Intern(fmt.Sprintf("H%d", i))
		m[i] = al.Intern(fmt.Sprintf("M%d", i))
		tb.Set(h[i], m[i], 10)
	}
	in := &core.Instance{Name: "cross", Alpha: al, Sigma: tb}
	word := func(rs []int, syms []symbol.Symbol) symbol.Word {
		w := make(symbol.Word, len(rs))
		for i, r := range rs {
			w[i] = syms[r]
		}
		return w
	}
	for i, f := range hFrags {
		in.H = append(in.H, core.Fragment{Name: fmt.Sprintf("h%d", i), Regions: word(f, h)})
	}
	for i, f := range mFrags {
		in.M = append(in.M, core.Fragment{Name: fmt.Sprintf("m%d", i), Regions: word(f, m)})
	}
	return in, h, m
}

// TestMinimizerIndexProperty: with W = 1 (every k-mer indexed) and no
// frequency cap, every shared k-mer between an H fragment (at its index
// level) and a translated M fragment yields exactly the expected anchor
// set — no hit missed, none invented.
func TestMinimizerIndexProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		nh, nm := 1+r.Intn(4), 1+r.Intn(4)
		regions := 6
		randFrags := func(n int) [][]int {
			out := make([][]int, n)
			for i := range out {
				f := make([]int, 1+r.Intn(7))
				for j := range f {
					f[j] = r.Intn(regions)
				}
				out[i] = f
			}
			return out
		}
		in, hSyms, _ := crossInstance(randFrags(nh), randFrags(nm))
		p := Params{K: 3, W: 1, MaxFreq: 0, Gap: 0.5}
		sx := newSigmaIndex(score.Prepare(in.Sigma, in.MaxSymbolID()))
		var st Stats
		idx := buildIndex(in, p, &st)

		// Expected anchors by direct token comparison. M_i translates to
		// H_i (the only positive partner); reversed M symbols have no
		// positive partner under this σ (σ(H_iᴿ, M_iᴿ) = 10 covers the
		// reversed class instead), so reverse-orientation queries translate
		// the un-reversed classes only.
		hTok := func(s symbol.Symbol) int32 { return int32(s) }
		mTok := func(s symbol.Symbol) int32 { return sx.bestPartner(int32(s)) }
		type key struct {
			h, m   int
			ph, pm int32
			ln     int32
			rev    bool
		}
		want := map[key]bool{}
		for hi := range in.H {
			hw := in.H[hi].Regions
			k := min(p.K, len(hw))
			for mi := range in.M {
				mw := in.M[mi].Regions
				for _, rev := range [2]bool{false, true} {
					ori := mw.Orient(rev)
					for i := 0; i+k <= len(hw); i++ {
						for j := 0; j+k <= len(ori); j++ {
							ok := true
							for d := 0; d < k; d++ {
								ht, mt := hTok(hw[i+d]), mTok(ori[j+d])
								if ht == 0 || mt == 0 || ht != mt {
									ok = false
									break
								}
							}
							if ok {
								want[key{hi, mi, int32(i), int32(j), int32(k), rev}] = true
							}
						}
					}
				}
			}
		}
		got := map[key]bool{}
		var anchors []Anchor
		for mi := range in.M {
			anchors = idx.queryFrag(in, sx, mi, anchors[:0])
			for _, a := range anchors {
				got[key{int(a.H), mi, a.PosH, a.PosM, a.Len, a.Rev}] = true
			}
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing anchor %+v (H frag %v, M frag %v)",
					trial, k, in.H[k.h].Regions, in.M[k.m].Regions)
			}
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("trial %d: unexpected anchor %+v", trial, k)
			}
		}
		_ = hSyms
	}
}

// TestFrequencyCap: a minimizer occurring in more fragments than MaxFreq is
// dropped from the index.
func TestFrequencyCap(t *testing.T) {
	frag := []int{0, 1, 2}
	in, _, _ := crossInstance([][]int{frag, frag, frag}, [][]int{frag})
	var st Stats
	idx := buildIndex(in, Params{K: 3, W: 1, MaxFreq: 2}, &st)
	sx := newSigmaIndex(score.Prepare(in.Sigma, in.MaxSymbolID()))
	if anchors := idx.queryFrag(in, sx, 0, nil); len(anchors) != 0 {
		t.Fatalf("capped seed still yields anchors: %+v", anchors)
	}
	if st.Capped == 0 {
		t.Fatalf("no postings were capped: %+v", st)
	}
}

// maskSet returns Mask's pairs as a set, failing on a duplicate: the mask
// walk stamps each H fragment once per M fragment.
func maskSet(t *testing.T, in *core.Instance) map[[2]int]bool {
	t.Helper()
	mask := map[[2]int]bool{}
	for _, p := range Mask(in) {
		k := [2]int{int(p[0]), int(p[1])}
		if mask[k] {
			t.Fatalf("mask lists pair %v twice", k)
		}
		mask[k] = true
	}
	return mask
}

// TestCandidatesSubsetOfExhaustive: every pair the practical pipeline admits
// shares a positive σ cell, so it must appear in the exhaustive mask (Mask).
func TestCandidatesSubsetOfExhaustive(t *testing.T) {
	for seedv := int64(0); seedv < 5; seedv++ {
		w := gen.Generate(gen.DefaultConfig(seedv))
		in := w.Instance
		mask := maskSet(t, in)
		if len(mask) == 0 {
			t.Fatalf("seed %d: exhaustive mask empty", seedv)
		}
		got := Candidates(in, DefaultParams())
		for _, p := range got.Pairs {
			if !mask[[2]int{p.H, p.M}] {
				t.Fatalf("seed %d: seeded pair (%d,%d) outside the positive-σ mask", seedv, p.H, p.M)
			}
			if len(p.Chains) == 0 {
				t.Fatalf("seed %d: seeded pair (%d,%d) has no chains", seedv, p.H, p.M)
			}
		}
		if got.Stats.Pairs != len(got.Pairs) {
			t.Fatalf("stats disagree with results: %+v", got.Stats)
		}
	}
}

// TestExhaustiveCoversOrthologs: the exhaustive mask (Mask) contains every
// pair connected by a surviving ortholog region (σ > 0 by construction),
// and no other pair.
func TestExhaustiveCoversOrthologs(t *testing.T) {
	w := gen.Generate(gen.DefaultConfig(3))
	in := w.Instance
	mask := maskSet(t, in)
	// Any (f, g) with σ(a, b) > 0 for some a ∈ f, b ∈ g (either orientation)
	// must be in the mask.
	for hi := range in.H {
		for mi := range in.M {
			pos := false
			for _, a := range in.H[hi].Regions {
				for _, b := range in.M[mi].Regions {
					if in.Sigma.Score(a, b) > 0 || in.Sigma.Score(a.Rev(), b) > 0 ||
						in.Sigma.Score(a, b.Rev()) > 0 || in.Sigma.Score(a.Rev(), b.Rev()) > 0 {
						pos = true
					}
				}
			}
			if pos && !mask[[2]int{hi, mi}] {
				t.Fatalf("pair (%d,%d) has a positive σ cell but is not in the exhaustive mask", hi, mi)
			}
			if !pos && mask[[2]int{hi, mi}] {
				t.Fatalf("pair (%d,%d) has no positive σ cell but is in the exhaustive mask", hi, mi)
			}
		}
	}
}

// TestCandidatesFindsInversions: an inverted ortholog block seeds a
// reverse-orientation chain with a window covering the block.
func TestCandidatesFindsInversions(t *testing.T) {
	// H fragment carries regions 0..7 in order; the M fragment carries the
	// middle block 2..5 inverted.
	in, _, mSyms := crossInstance(
		[][]int{{0, 1, 2, 3, 4, 5, 6, 7}},
		[][]int{{0, 1}}, // placeholder, rebuilt below
	)
	inv := make(symbol.Word, 0, 8)
	for _, r := range []int{0, 1} {
		inv = append(inv, mSyms[r])
	}
	for _, r := range []int{5, 4, 3, 2} {
		inv = append(inv, mSyms[r].Rev())
	}
	for _, r := range []int{6, 7} {
		inv = append(inv, mSyms[r])
	}
	in.M[0].Regions = inv
	res := Candidates(in, Params{K: 3, W: 1, Gap: 0.5, Band: 2, Verify: true})
	if len(res.Pairs) != 1 {
		t.Fatalf("pairs = %+v", res.Pairs)
	}
	var rev *Chain
	for i := range res.Pairs[0].Chains {
		if res.Pairs[0].Chains[i].Rev {
			rev = &res.Pairs[0].Chains[i]
		}
	}
	if rev == nil {
		t.Fatalf("no reverse chain found: %+v", res.Pairs[0].Chains)
	}
	// The inverted block occupies M[2:6] in forward coordinates; the best
	// reverse chain must land inside it and span at least one seed.
	if rev.MLo < 2 || rev.MHi > 6 || rev.MHi-rev.MLo < 3 {
		t.Fatalf("reverse chain window misses the inverted block: %+v", rev)
	}
}

func FuzzChainer(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 9, 9}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, g uint8) {
		var anchors []Anchor
		for i := 0; i+3 <= len(data) && len(anchors) < 80; i += 3 {
			anchors = append(anchors, Anchor{
				PosH: int32(data[i]),
				PosM: int32(data[i+1]),
				Len:  int32(1 + data[i+2]%4),
			})
		}
		if len(anchors) == 0 {
			return
		}
		SortAnchors(anchors)
		gap := float64(g%8) / 4
		var cs chainScratch
		got := chainBest(anchors, gap, &cs)
		want := chainBestBrute(anchors, gap)
		if got != want {
			t.Fatalf("chainBest %+v != brute %+v (anchors %+v gap %v)", got, want, anchors, gap)
		}
		if got.Score < float64(anchors[0].Len) {
			t.Fatalf("chain score %v below any single anchor", got.Score)
		}
	})
}

// newSigmaIndex returns a fresh index of sc.
func newSigmaIndex(sc score.Scorer) *sigmaIndex {
	x := new(sigmaIndex)
	x.build(sc)
	return x
}

// buildIndex returns a fresh minimizer index of in's H fragments.
func buildIndex(in *core.Instance, p Params, st *Stats) *index {
	idx := new(index)
	idx.build(in, p, st)
	return idx
}
