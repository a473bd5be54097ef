package improve

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/greedy"
	"repro/internal/onecsr"
	"repro/internal/score"
	"repro/internal/symbol"
)

func fourApproxScore(in *core.Instance) (float64, error) {
	sol, err := onecsr.FourApprox(in)
	if err != nil {
		return 0, err
	}
	return sol.Score(), nil
}

func randInstance(r *rand.Rand, hFrags, mFrags, fragLen, alpha int) *core.Instance {
	al := symbol.NewAlphabet()
	syms := make([]symbol.Symbol, alpha)
	for i := range syms {
		syms[i] = al.Intern(string(rune('a' + i)))
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

func TestCSRImprovePaperExample(t *testing.T) {
	in := core.PaperExample()
	sol, stats, err := Improve(in, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !sol.IsConsistent(in) {
		t.Fatal("inconsistent result")
	}
	// The paper's optimum is 11; CSR_Improve guarantees ≥ opt/3 and on
	// this instance actually finds the optimum.
	if sol.Score() < 11 {
		t.Fatalf("CSR_Improve scored %v on the paper example (opt 11, stats %+v)", sol.Score(), stats)
	}
}

func TestImproveVariantsConsistentAndWithinRatio(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 15; trial++ {
		in := randInstance(r, 1+r.Intn(3), 1+r.Intn(3), 3, 4)
		opt, err := exact.Solve(in, exact.Solver{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Methods{FullOnly, BorderOnly, AllMethods} {
			sol, _, err := Improve(in, Options{Methods: m, CheckInvariants: true})
			if err != nil {
				t.Fatalf("trial %d methods %v: %v", trial, m, err)
			}
			if sol.Score() > opt.Score+1e-9 {
				t.Fatalf("methods %v beat exact: %v > %v", m, sol.Score(), opt.Score)
			}
			if m == AllMethods && 3*sol.Score() < opt.Score-1e-9 {
				t.Fatalf("trial %d: CSR_Improve ratio >3: %v vs opt %v", trial, sol.Score(), opt.Score)
			}
		}
	}
}

func TestImproveBeatsGreedyOnFoolingFamily(t *testing.T) {
	in := greedy.FoolingInstance(3, 10)
	g := greedy.Matching(in)
	sol, _, err := Improve(in, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * (4*10.0 - 4) // planted optimum
	if sol.Score() < want {
		t.Fatalf("CSR_Improve %v below planted optimum %v", sol.Score(), want)
	}
	if sol.Score() <= g.Score() {
		t.Fatalf("CSR_Improve %v did not beat greedy %v", sol.Score(), g.Score())
	}
}

func TestSeedNeverHurts(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		in := randInstance(r, 2, 2, 3, 4)
		plain, _, err := Improve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seeded, _, err := Improve(in, Options{SeedWithFourApprox: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := seeded.Validate(in); err != nil {
			t.Fatal(err)
		}
		if !seeded.IsConsistent(in) {
			t.Fatal("seeded result inconsistent")
		}
		// Both are local optima; the seeded one must be at least the seed.
		fa := seededBaseline(t, in)
		if seeded.Score() < fa-1e-9 {
			t.Fatalf("seeded result %v below its seed %v", seeded.Score(), fa)
		}
		_ = plain
	}
}

func seededBaseline(t *testing.T, in *core.Instance) float64 {
	t.Helper()
	sol, _, err := Improve(in, Options{MaxRounds: 1, SeedWithFourApprox: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = sol
	// Recompute the 4-approx directly.
	fa, err := fourApproxScore(in)
	if err != nil {
		t.Fatal(err)
	}
	return fa
}

func TestThresholdBoundsRounds(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	in := randInstance(r, 3, 3, 3, 5)
	_, statsT, err := Improve(in, Options{Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if statsT.Threshold <= 0 {
		t.Skip("no positive baseline on this draw")
	}
	k := in.MaxMatches()
	if statsT.Accepted > 4*k*k/1+k+16 {
		t.Fatalf("accepted %d improvements, above the scaling bound", statsT.Accepted)
	}
}

func TestStatePrimitives(t *testing.T) {
	in := core.PaperExample()
	st := newState(in, core.PaperExampleOptimum(), densePairSet(in))
	if st.score() != 11 {
		t.Fatalf("seeded state score %v", st.score())
	}
	h1 := core.FragRef{Sp: core.SpeciesH, Idx: 0}
	if st.degree(h1) != 2 {
		t.Fatalf("degree(h1) = %d", st.degree(h1))
	}
	if st.contribution(h1) != 9 {
		t.Fatalf("Cb(h1) = %v", st.contribution(h1))
	}
	m2 := core.FragRef{Sp: core.SpeciesM, Idx: 1}
	links := st.chainMatchIDs(m2)
	if len(links) != 1 {
		t.Fatalf("chain links of m2: %v", links)
	}
	// m1 = ⟨s t⟩ is fully occupied by match 0 (site m1(1,2) in paper
	// coordinates = [0,2) here): no free gaps.
	if gaps := st.freeGaps(core.FragRef{Sp: core.SpeciesM, Idx: 0}); len(gaps) != 0 {
		t.Fatalf("freeGaps(m1) = %v, want none", gaps)
	}
}

func TestPrepareRestrictsAndFrees(t *testing.T) {
	in := core.PaperExample()
	st := newState(in, core.PaperExampleOptimum(), densePairSet(in))
	// Match 0 pairs h1's prefix with the full m1 — m1 is the plugged-in
	// satellite. Preparing any window on the satellite detaches it (the
	// paper's Simp(S) rule), freeing the partner site on h1.
	m1 := core.FragRef{Sp: core.SpeciesM, Idx: 0}
	freed := st.prepare(nil, m1, 1, 2)
	if len(freed) != 1 || freed[0] != (core.Site{Species: core.SpeciesH, Frag: 0, Lo: 0, Hi: 2}) {
		t.Fatalf("freed %v, want the h1 partner site", freed)
	}
	if st.degree(m1) != 0 {
		t.Fatal("satellite match survived preparation")
	}
	// A genuine restriction: satellite h2 (full site) plugged into m2's
	// window; preparing part of the center's window shrinks the center
	// side and keeps the satellite's full site.
	st2 := newState(in, &core.Solution{Matches: []core.Match{{
		HSite: core.Site{Species: core.SpeciesH, Frag: 0, Lo: 0, Hi: 3},
		MSite: core.Site{Species: core.SpeciesM, Frag: 0, Lo: 0, Hi: 2},
		Rev:   false,
		Score: 4, // h1 (full) vs m1 window: a~s
	}}}, densePairSet(in))
	h1 := core.FragRef{Sp: core.SpeciesH, Idx: 0}
	_ = h1
	m1ref := core.FragRef{Sp: core.SpeciesM, Idx: 0}
	freed2 := st2.prepare(nil, m1ref, 1, 2)
	if len(freed2) != 0 {
		t.Fatalf("freed %v, want none (restriction of the center side)", freed2)
	}
	var got core.Match
	for _, mt := range st2.matches {
		got = mt
	}
	if got.MSite.Hi != 1 || got.Score != 4 {
		t.Fatalf("restricted match = %+v, want m-site [0,1) score 4", got)
	}
	// Preparing the whole of m2 removes its matches, freeing partners and
	// breaking the chain.
	st3 := newState(in, core.PaperExampleOptimum(), densePairSet(in))
	m2 := core.FragRef{Sp: core.SpeciesM, Idx: 1}
	freed3 := st3.prepare(nil, m2, 0, 2)
	if len(freed3) != 2 {
		t.Fatalf("freed %v, want h-side partner sites of both m2 matches", freed3)
	}
	if st3.degree(m2) != 0 {
		t.Fatal("m2 still matched after full preparation")
	}
}

func TestFreeGapsClip(t *testing.T) {
	in := core.PaperExample()
	st := newState(in, core.PaperExampleOptimum(), densePairSet(in))
	h1 := core.FragRef{Sp: core.SpeciesH, Idx: 0}
	if gaps := st.freeGaps(h1); len(gaps) != 0 {
		t.Fatalf("h1 fully covered, got gaps %v", gaps)
	}
	st.removeMatch(st.fragMatchIDs(h1)[0])
	gaps := st.freeGaps(h1)
	if len(gaps) != 1 || gaps[0] != [2]int{0, 2} {
		t.Fatalf("gaps = %v", gaps)
	}
	clip := st.clipFree(h1, 1, 3)
	if len(clip) != 1 || clip[0] != [2]int{1, 2} {
		t.Fatalf("clip = %v", clip)
	}
}
