package onecsr

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/score"
	"repro/internal/symbol"
)

func randInstance(r *rand.Rand, hFrags, mFrags, fragLen, alpha int) *core.Instance {
	al := symbol.NewAlphabet()
	syms := make([]symbol.Symbol, alpha)
	for i := range syms {
		syms[i] = al.Intern(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	tb := score.NewTable()
	for trial := 0; trial < alpha*3; trial++ {
		a := syms[r.Intn(alpha)]
		b := syms[r.Intn(alpha)]
		if r.Intn(2) == 0 {
			b = b.Rev()
		}
		tb.Set(a, b, float64(1+r.Intn(9)))
	}
	mk := func(n int) []core.Fragment {
		fs := make([]core.Fragment, n)
		for i := range fs {
			w := make(symbol.Word, 1+r.Intn(fragLen))
			for j := range w {
				w[j] = syms[r.Intn(alpha)]
				if r.Intn(4) == 0 {
					w[j] = w[j].Rev()
				}
			}
			fs[i] = core.Fragment{Name: "f", Regions: w}
		}
		return fs
	}
	return &core.Instance{H: mk(hFrags), M: mk(mFrags), Alpha: al, Sigma: tb}
}

func TestSolveOnePaperStyle(t *testing.T) {
	// 1-CSR variant of the paper example: M is a single contig s t u v.
	base := core.PaperExample()
	in := &core.Instance{
		H:     base.H,
		M:     []core.Fragment{{Name: "m", Regions: symbol.Concat(base.M[0].Regions, base.M[1].Regions)}},
		Alpha: base.Alpha,
		Sigma: base.Sigma,
	}
	sol, err := SolveOne(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !sol.IsConsistent(in) {
		t.Fatal("1-CSR solution inconsistent")
	}
	// Optimum of the single-M instance (computable exactly) bounds it by
	// at most 2×.
	opt, err := exact.Solve(in, exact.Solver{})
	if err != nil {
		t.Fatal(err)
	}
	if 2*sol.Score() < opt.Score-1e-9 {
		t.Fatalf("1-CSR ratio violated: %v vs opt %v", sol.Score(), opt.Score)
	}
}

func TestSolveOneRequiresSingleM(t *testing.T) {
	in := core.PaperExample()
	if _, err := SolveOne(in); err == nil {
		t.Fatal("multi-M instance accepted")
	}
}

func TestSolveOneRatioRandom(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 50; trial++ {
		in := randInstance(r, 1+r.Intn(4), 1, 3, 5)
		sol, err := SolveOne(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := sol.Validate(in); err != nil {
			t.Fatal(err)
		}
		if !sol.IsConsistent(in) {
			t.Fatal("inconsistent 1-CSR solution")
		}
		opt, err := exact.Solve(in, exact.Solver{})
		if err != nil {
			t.Fatal(err)
		}
		if 2*sol.Score() < opt.Score-1e-9 {
			t.Fatalf("ratio >2: sol %v opt %v", sol.Score(), opt.Score)
		}
		if sol.Score() > opt.Score+1e-9 {
			t.Fatalf("approximation beats exact: %v > %v", sol.Score(), opt.Score)
		}
	}
}

func TestFourApproxPaperExample(t *testing.T) {
	in := core.PaperExample()
	sol, err := FourApprox(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !sol.IsConsistent(in) {
		t.Fatal("4-approx solution inconsistent")
	}
	if 4*sol.Score() < 11-1e-9 {
		t.Fatalf("4-approx below opt/4: %v", sol.Score())
	}
}

func TestFourApproxRatioRandom(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(r, 1+r.Intn(3), 1+r.Intn(3), 3, 5)
		sol, err := FourApprox(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := sol.Validate(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sol.IsConsistent(in) {
			t.Fatalf("trial %d: inconsistent", trial)
		}
		opt, err := exact.Solve(in, exact.Solver{})
		if err != nil {
			t.Fatal(err)
		}
		if 4*sol.Score() < opt.Score-1e-9 {
			t.Fatalf("4-approx ratio violated: %v vs %v", sol.Score(), opt.Score)
		}
		if sol.Score() > opt.Score+1e-9 {
			t.Fatalf("beats exact: %v > %v", sol.Score(), opt.Score)
		}
	}
}

func TestDoublingInequality(t *testing.T) {
	// Theorem 3 inequality (2): Opt(H,M′) + Opt(M,H′) ≥ Opt(H,M).
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 25; trial++ {
		in := randInstance(r, 1+r.Intn(3), 1+r.Intn(3), 2, 4)
		cat, _ := new(work).concatM(in)
		optHM2, err := exact.Solve(cat, exact.Solver{})
		if err != nil {
			t.Fatal(err)
		}
		tcat, _ := new(work).concatM(Transpose(in))
		optMH2, err := exact.Solve(tcat, exact.Solver{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.Solve(in, exact.Solver{})
		if err != nil {
			t.Fatal(err)
		}
		if optHM2.Score+optMH2.Score < opt.Score-1e-9 {
			t.Fatalf("inequality (2) violated: %v + %v < %v",
				optHM2.Score, optMH2.Score, opt.Score)
		}
	}
}

func TestTranspose(t *testing.T) {
	in := core.PaperExample()
	tin := Transpose(in)
	if len(tin.H) != len(in.M) || len(tin.M) != len(in.H) {
		t.Fatal("transpose shape wrong")
	}
	// σᵀ(s, a) = σ(a, s) = 4.
	a, _ := in.Alpha.Lookup("a")
	s, _ := in.Alpha.Lookup("s")
	if got := tin.Sigma.Score(s, a); got != 4 {
		t.Fatalf("σᵀ(s,a) = %v, want 4", got)
	}
}

func TestSplitAcrossBoundaryReversed(t *testing.T) {
	// The straddling window aligns in reversed orientation: h = ⟨x y⟩ with
	// σ(x, qᴿ) and σ(y, pᴿ), so h pairs (m1 m2)ᴿ across the boundary.
	al := symbol.NewAlphabet()
	x, y := al.Intern("x"), al.Intern("y")
	p, q := al.Intern("p"), al.Intern("q")
	tb := score.NewTable()
	tb.Set(x, q.Rev(), 5)
	tb.Set(y, p.Rev(), 5)
	in := &core.Instance{
		H: []core.Fragment{{Name: "h", Regions: symbol.Word{x, y}}},
		M: []core.Fragment{
			{Name: "m1", Regions: symbol.Word{p}},
			{Name: "m2", Regions: symbol.Word{q}},
		},
		Alpha: al,
		Sigma: tb,
	}
	sol, err := FourApprox(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Score() != 10 {
		t.Fatalf("score %v, want 10", sol.Score())
	}
	if len(sol.Matches) != 2 {
		t.Fatalf("matches %d, want 2 split parts", len(sol.Matches))
	}
	for _, mt := range sol.Matches {
		if !mt.Rev {
			t.Fatalf("reversed straddle lost orientation: %+v", mt)
		}
	}
	conj, err := sol.BuildConjecture(in)
	if err != nil {
		t.Fatalf("reversed chain inconsistent: %v", err)
	}
	// The realized M layout must place m2 before m1 (both reversed) or the
	// global flip thereof.
	if len(conj.MOrder) != 2 {
		t.Fatalf("M order %v", conj.MOrder)
	}
}

func TestSplitThreeWayChain(t *testing.T) {
	// h straddles three M fragments; the middle one must come back as a
	// full-site satellite and the ends as border claims.
	al := symbol.NewAlphabet()
	regs := make([]symbol.Symbol, 3)
	h := make(symbol.Word, 3)
	tb := score.NewTable()
	m := make([]core.Fragment, 3)
	for i := range regs {
		regs[i] = al.Intern(string(rune('p' + i)))
		h[i] = al.Intern(string(rune('x' + i)))
		tb.Set(h[i], regs[i], 4)
		m[i] = core.Fragment{Name: string(rune('1' + i)), Regions: symbol.Word{regs[i]}}
	}
	in := &core.Instance{
		H:     []core.Fragment{{Name: "h", Regions: h}},
		M:     m,
		Alpha: al,
		Sigma: tb,
	}
	sol, err := FourApprox(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Score() != 12 || len(sol.Matches) != 3 {
		t.Fatalf("score %v matches %d", sol.Score(), len(sol.Matches))
	}
	if !sol.IsConsistent(in) {
		t.Fatal("three-way chain inconsistent")
	}
	fullCount := 0
	for _, mt := range sol.Matches {
		if in.KindOf(mt) == core.FullMatch {
			fullCount++
		}
	}
	if fullCount < 1 {
		t.Fatal("middle fragment not a full match")
	}
}

func TestSplitAcrossBoundary(t *testing.T) {
	// An H fragment whose best window straddles two M fragments must come
	// back as a consistent chain.
	al := symbol.NewAlphabet()
	x, y := al.Intern("x"), al.Intern("y")
	p, q := al.Intern("p"), al.Intern("q")
	tb := score.NewTable()
	tb.Set(x, p, 5)
	tb.Set(y, q, 5)
	in := &core.Instance{
		H: []core.Fragment{{Name: "h", Regions: symbol.Word{x, y}}},
		M: []core.Fragment{
			{Name: "m1", Regions: symbol.Word{p}},
			{Name: "m2", Regions: symbol.Word{q}},
		},
		Alpha: al,
		Sigma: tb,
	}
	sol, err := FourApprox(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Score() != 10 {
		t.Fatalf("score %v, want 10", sol.Score())
	}
	if !sol.IsConsistent(in) {
		t.Fatal("straddling solution inconsistent")
	}
	if len(sol.Matches) != 2 {
		t.Fatalf("expected 2 split matches, got %d", len(sol.Matches))
	}
}
