package improve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/onecsr"
)

// TestRandomWorkloadInvariants is the regression net for the structural
// bug class fixed during development: every accepted improvement on
// realistic workloads must leave a consistent solution. It sweeps seeds ×
// sizes with full invariant checking (the shipped driver checks nothing in
// production mode).
func TestRandomWorkloadInvariants(t *testing.T) {
	seeds := int64(12)
	sizes := []int{30, 50}
	if testing.Short() {
		seeds, sizes = 4, []int{30}
	}
	for seed := int64(0); seed < seeds; seed++ {
		for _, regions := range sizes {
			cfg := gen.DefaultConfig(seed)
			cfg.Regions = regions
			w := gen.Generate(cfg)
			sol, _, err := Improve(w.Instance, Options{
				Eps: 0.05, SeedWithFourApprox: true, CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("seed %d regions %d: %v", seed, regions, err)
			}
			if !sol.IsConsistent(w.Instance) {
				t.Fatalf("seed %d regions %d: final solution inconsistent", seed, regions)
			}
			// Improvement must never lose to its own seed.
			fa, err := onecsr.FourApprox(w.Instance)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Score() < fa.Score()-1e-9 {
				t.Fatalf("seed %d regions %d: %v below seed %v", seed, regions, sol.Score(), fa.Score())
			}
		}
	}
}

// TestEmptyStartInvariants runs the paper's literal configuration (empty
// initial solution) with invariant checking.
func TestEmptyStartInvariants(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		cfg := gen.DefaultConfig(seed)
		cfg.Regions = 30
		w := gen.Generate(cfg)
		sol, stats, err := Improve(w.Instance, Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.Accepted > 0 && sol.Score() <= 0 {
			t.Fatalf("seed %d: accepted %d improvements but scored %v",
				seed, stats.Accepted, sol.Score())
		}
	}
}

func TestI1AttemptPaperExample(t *testing.T) {
	in := core.PaperExample()
	st := newState(in, nil, densePairSet(in))
	// Plug h2 (⟨d⟩) into the whole of m2 (⟨u v⟩): best placement is
	// σ(d,vᴿ)=2 at window [1,2).
	at := i1Attempt(
		core.FragRef{Sp: core.SpeciesH, Idx: 1},
		core.FragRef{Sp: core.SpeciesM, Idx: 1}, 0, 2)
	gain := at.run(st)
	// The plug itself gains 2; the TPA run on the remnant window [0,1)
	// additionally places h1 against u (σ(c,u)=5), for 7 total.
	if gain != 7 {
		t.Fatalf("gain = %v, want 7 (plug 2 + TPA 5)", gain)
	}
	sol := st.solution()
	if len(sol.Matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(sol.Matches))
	}
	if err := sol.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !sol.IsConsistent(in) {
		t.Fatal("inconsistent after I1")
	}
}

func TestI1AttemptDisplacesWeakerMatch(t *testing.T) {
	in := core.PaperExample()
	// Seed: h2 matched to m1's t with σ(d,t)=2.
	seed := &core.Solution{Matches: []core.Match{{
		HSite: core.Site{Species: core.SpeciesH, Frag: 1, Lo: 0, Hi: 1},
		MSite: core.Site{Species: core.SpeciesM, Frag: 0, Lo: 1, Hi: 2},
		Rev:   false,
		Score: 2,
	}}}
	st := newState(in, seed, densePairSet(in))
	// Plug h1 into all of m1: best placement pairs a~s (4) — preparation
	// must displace h2 (its site is inside the window, partner side ⟨d⟩ is
	// full → removal), then TPA may re-place h2 elsewhere... m1 is fully
	// claimed by the window; freed zones lie on h2 itself.
	at := i1Attempt(
		core.FragRef{Sp: core.SpeciesH, Idx: 0},
		core.FragRef{Sp: core.SpeciesM, Idx: 0}, 0, 2)
	gain := at.run(st)
	sol := st.solution()
	if err := sol.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !sol.IsConsistent(in) {
		t.Fatal("inconsistent after displacement")
	}
	if gain < 2 { // at least 4 (new) − 2 (displaced)
		t.Fatalf("gain = %v", gain)
	}
}

func TestI2AttemptFormsChain(t *testing.T) {
	// Two fragments whose ends align: h = ⟨x y⟩, m = ⟨p q⟩ with
	// σ(y,p) = 6: linking h's right end to m's left end forms a 2-island.
	in := chainPairInstance(t)
	st := newState(in, nil, densePairSet(in))
	at := i2Attempt(
		core.FragRef{Sp: core.SpeciesH, Idx: 0}, rightEnd, 2,
		core.FragRef{Sp: core.SpeciesM, Idx: 0}, leftEnd, 2)
	gain := at.run(st)
	if gain != 6 {
		t.Fatalf("gain = %v, want 6", gain)
	}
	sol := st.solution()
	if len(sol.Matches) != 1 {
		t.Fatalf("matches = %d", len(sol.Matches))
	}
	mt := sol.Matches[0]
	if mt.Rev {
		t.Fatal("right↔left link must be forward")
	}
	// Claims reach the fragment ends.
	if mt.HSite.Hi != 2 || mt.MSite.Lo != 0 {
		t.Fatalf("claims not end-anchored: %v %v", mt.HSite, mt.MSite)
	}
	if !sol.IsConsistent(in) {
		t.Fatal("inconsistent chain")
	}
}

func TestI2AttemptSameEndIsReversed(t *testing.T) {
	in := chainPairInstance(t)
	// Right↔right geometry forces reversed orientation; score comes from
	// σ(y, qᴿ) = 4.
	st := newState(in, nil, densePairSet(in))
	at := i2Attempt(
		core.FragRef{Sp: core.SpeciesH, Idx: 0}, rightEnd, 2,
		core.FragRef{Sp: core.SpeciesM, Idx: 0}, rightEnd, 2)
	gain := at.run(st)
	if gain != 4 {
		t.Fatalf("gain = %v, want 4", gain)
	}
	sol := st.solution()
	if len(sol.Matches) != 1 || !sol.Matches[0].Rev {
		t.Fatalf("same-end link not reversed: %+v", sol.Matches)
	}
	if !sol.IsConsistent(in) {
		t.Fatal("inconsistent")
	}
}

func chainPairInstance(t *testing.T) *core.Instance {
	t.Helper()
	in, err := buildInstance()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func buildInstance() (*core.Instance, error) {
	al := newAlphabetWith("x", "y", "p", "q")
	tb := newTableWith(al, [][3]any{
		{"y", "p", 6.0},
		{"y", "q'", 4.0},
	})
	in := &core.Instance{
		H:     []core.Fragment{{Name: "h", Regions: wordOf(al, "x y")}},
		M:     []core.Fragment{{Name: "m", Regions: wordOf(al, "p q")}},
		Alpha: al,
		Sigma: tb,
	}
	return in, in.Validate()
}
