package improve

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/improve/enum"
)

// targetWindows and endDepths are thin shims over the enumeration
// subsystem's pure window functions, exercised here against live states.
func targetWindows(st *state, fr core.FragRef) [][2]int {
	return enum.AppendWindows(nil, st.sitesOn(fr), st.in.Frag(fr.Sp, fr.Idx).Len())
}

func endDepths(st *state, fr core.FragRef, e end) []int {
	d := enum.EndDepthsAt(st.sitesOn(fr), st.in.Frag(fr.Sp, fr.Idx).Len(), int(e))
	out := make([]int, d.Len())
	for i := range out {
		out[i] = d.At(i)
	}
	return out
}

func TestTargetWindows(t *testing.T) {
	in := core.PaperExample()
	st := newState(in, core.PaperExampleOptimum(), densePairSet(in))
	// m2 (len 2) is fully covered by two sites [0,1) and [1,2): windows
	// are the whole fragment plus nothing else (no free gaps).
	m2 := core.FragRef{Sp: core.SpeciesM, Idx: 1}
	ws := targetWindows(st, m2)
	if len(ws) != 1 || ws[0] != [2]int{0, 2} {
		t.Fatalf("windows = %v, want just the whole fragment", ws)
	}
	// After removing the [0,1) match, the gap plus its extension across
	// the neighbouring site appear.
	for _, id := range st.fragMatchIDs(m2) {
		if st.matches[id].Side(core.SpeciesM).Lo == 0 {
			st.removeMatch(id)
		}
	}
	ws = targetWindows(st, m2)
	want := map[[2]int]bool{{0, 1}: true, {0, 2}: true}
	if len(ws) != len(want) {
		t.Fatalf("windows = %v", ws)
	}
	for _, w := range ws {
		if !want[w] {
			t.Fatalf("unexpected window %v", w)
		}
	}
}

func TestEndDepths(t *testing.T) {
	in := core.PaperExample()
	st := newState(in, nil, densePairSet(in))
	h1 := core.FragRef{Sp: core.SpeciesH, Idx: 0}
	// No matches: only the full depth.
	if ds := endDepths(st, h1, leftEnd); len(ds) != 1 || ds[0] != 3 {
		t.Fatalf("free fragment depths = %v", ds)
	}
	// Occupy the middle region [1,2): both ends get a free depth of 1 plus
	// the full depth.
	st.addMatch(st.mkMatch(core.FragRef{Sp: core.SpeciesM, Idx: 0}, false, h1, 1, 2))
	for _, e := range []end{leftEnd, rightEnd} {
		ds := endDepths(st, h1, e)
		if len(ds) != 2 || ds[0] != 1 || ds[1] != 3 {
			t.Fatalf("%v depths = %v", e, ds)
		}
	}
}

func TestEnumerateMethodFiltering(t *testing.T) {
	in := core.PaperExample()
	st := newState(in, nil, densePairSet(in))
	full := enumerate(st, FullOnly)
	border := enumerate(st, BorderOnly)
	all := enumerate(st, AllMethods)
	for _, at := range full {
		if at.kind() != "I1" {
			t.Fatalf("FullOnly produced %s", at.kind())
		}
	}
	for _, at := range border {
		if at.kind() == "I1" {
			t.Fatalf("BorderOnly produced I1")
		}
	}
	if len(all) != len(full)+len(border) {
		t.Fatalf("AllMethods %d != %d + %d", len(all), len(full), len(border))
	}
}

func TestMatchingTwoApproxRatio(t *testing.T) {
	// On single-region instances every match is full–full, so the
	// Hungarian matching is exactly optimal; on general small instances it
	// must stay within the formal factor 2 of Border CSR — here we check
	// the weaker, always-true property that it never beats exact and is
	// consistent.
	r := rand.New(rand.NewSource(127))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(r, 1+r.Intn(3), 1+r.Intn(3), 2, 4)
		m2, err := MatchingTwoApprox(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.Validate(in); err != nil {
			t.Fatal(err)
		}
		if !m2.IsConsistent(in) {
			t.Fatal("matching solution inconsistent")
		}
		opt, err := exact.Solve(in, exact.Solver{})
		if err != nil {
			t.Fatal(err)
		}
		if m2.Score() > opt.Score+1e-9 {
			t.Fatalf("matching beats exact: %v > %v", m2.Score(), opt.Score)
		}
	}
}

func TestTPADirect(t *testing.T) {
	// A zone on m1 with two competing H fragments: TPA must pick the
	// non-conflicting pair, not just the single best.
	al := newAlphabetWith("a", "b", "p", "q")
	tb := newTableWith(al, [][3]any{
		{"a", "p", 5.0},
		{"b", "q", 4.0},
		{"a", "q", 6.0},
	})
	in := &core.Instance{
		H: []core.Fragment{
			{Name: "h1", Regions: wordOf(al, "a")},
			{Name: "h2", Regions: wordOf(al, "b")},
		},
		M:     []core.Fragment{{Name: "m", Regions: wordOf(al, "p q")}},
		Alpha: al,
		Sigma: tb,
	}
	st := newState(in, nil, densePairSet(in))
	gain := st.tpa([]core.Site{{Species: core.SpeciesM, Frag: 0, Lo: 0, Hi: 2}})
	// Optimal fill: a~p (5) + b~q (4) = 9; greedy would take a~q (6) and
	// block b. The two-phase algorithm is only 2-approx, so assert ≥ half
	// of 9 and feasibility; on this instance it does find 9.
	if gain < 4.5 {
		t.Fatalf("TPA gain %v below half of optimal fill", gain)
	}
	sol := st.solution()
	if err := sol.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !sol.IsConsistent(in) {
		t.Fatal("TPA fill inconsistent")
	}
	if gain != 9 {
		t.Logf("note: TPA found %v (optimal fill is 9)", gain)
	}
}

func TestTPARespectsLocks(t *testing.T) {
	in := core.PaperExample()
	st := newState(in, nil, densePairSet(in))
	st.lock(core.FragRef{Sp: core.SpeciesH, Idx: 0})
	st.lock(core.FragRef{Sp: core.SpeciesH, Idx: 1})
	gain := st.tpa([]core.Site{{Species: core.SpeciesM, Frag: 0, Lo: 0, Hi: 2}})
	if gain != 0 || len(st.matches) != 0 {
		t.Fatalf("locked fragments were placed: gain %v, %d matches", gain, len(st.matches))
	}
}

func TestTPAProfitAccountsForContribution(t *testing.T) {
	// h1 already contributes 5 elsewhere; moving it into a zone worth 4
	// must not happen (profit would be negative).
	al := newAlphabetWith("a", "p", "q")
	tb := newTableWith(al, [][3]any{
		{"a", "p", 5.0},
		{"a", "q", 4.0},
	})
	in := &core.Instance{
		H: []core.Fragment{{Name: "h1", Regions: wordOf(al, "a")}},
		M: []core.Fragment{
			{Name: "m1", Regions: wordOf(al, "p")},
			{Name: "m2", Regions: wordOf(al, "q")},
		},
		Alpha: al,
		Sigma: tb,
	}
	st := newState(in, nil, densePairSet(in))
	st.addMatch(st.mkMatch(core.FragRef{Sp: core.SpeciesH, Idx: 0}, false,
		core.FragRef{Sp: core.SpeciesM, Idx: 0}, 0, 1))
	gain := st.tpa([]core.Site{{Species: core.SpeciesM, Frag: 1, Lo: 0, Hi: 1}})
	if gain != 0 {
		t.Fatalf("unprofitable move accepted: gain %v", gain)
	}
	if st.score() != 5 {
		t.Fatalf("score changed to %v", st.score())
	}
}
