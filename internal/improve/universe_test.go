package improve

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/improve/enum"
	"repro/internal/score"
	"repro/internal/seed"
	"repro/internal/symbol"
)

// allPairs is the dense test universe: every H×M fragment pair. Plugged in
// through Options.universe it is the positive-σ mask's parity oracle.
func allPairs(in *core.Instance) [][2]int32 {
	nh, nm := in.NumFrags(core.SpeciesH), in.NumFrags(core.SpeciesM)
	pairs := make([][2]int32, 0, nh*nm)
	for fi := 0; fi < nh; fi++ {
		for gi := 0; gi < nm; gi++ {
			pairs = append(pairs, [2]int32{int32(fi), int32(gi)})
		}
	}
	return pairs
}

// densePairSet is allPairs as a PairSet, for tests that build a state by
// hand.
func densePairSet(in *core.Instance) *enum.PairSet {
	ps := new(enum.PairSet)
	ps.Reset(in.NumFrags(core.SpeciesH), in.NumFrags(core.SpeciesM), allPairs(in))
	return ps
}

// universeShape is one instance of the parity table; mask checks the size
// of its positive-σ mask against the dense universe's.
type universeShape struct {
	name string
	in   *core.Instance
	mask func(t *testing.T, n, dense int)
}

// universeShapes returns the parity table's instances: generated instances
// of 40–120 regions plus four derived from the 40-region one — zero σ (an
// empty mask), all-positive σ (the mask is every pair), every M fragment
// reversed (positive cells only in the reversed orientation class) and
// every fragment cut into single regions.
func universeShapes() []universeShape {
	var shapes []universeShape
	sparse := func(t *testing.T, n, dense int) {
		if n == 0 || n >= dense {
			t.Errorf("mask holds %d of %d pairs: not a proper sparse universe", n, dense)
		}
	}
	for _, c := range []struct {
		seed            int64
		regions, contig int
	}{{3, 40, 5}, {7, 80, 5}, {11, 120, 6}} {
		cfg := gen.DefaultConfig(c.seed)
		cfg.Regions, cfg.MeanContig = c.regions, c.contig
		shapes = append(shapes, universeShape{
			name: fmt.Sprintf("gen-%d", c.regions),
			in:   gen.Generate(cfg).Instance,
			mask: sparse,
		})
	}
	base := shapes[0].in

	zero := *base
	zero.Sigma = score.NewTable()
	shapes = append(shapes, universeShape{name: "zero-sigma", in: &zero,
		mask: func(t *testing.T, n, _ int) {
			if n != 0 {
				t.Errorf("zero σ: mask holds %d pairs, want 0", n)
			}
		}})

	pos := *base
	tb := base.Sigma.(*score.Table).Clone()
	for _, hf := range base.H {
		for _, a := range hf.Regions {
			for _, mf := range base.M {
				for _, b := range mf.Regions {
					if tb.Score(a, b) == 0 {
						tb.Set(a, b, 0.5)
					}
				}
			}
		}
	}
	pos.Sigma = tb
	shapes = append(shapes, universeShape{name: "all-positive", in: &pos,
		mask: func(t *testing.T, n, dense int) {
			if n != dense {
				t.Errorf("all-positive σ: mask holds %d of %d pairs", n, dense)
			}
		}})

	rev := *base
	rev.M = make([]core.Fragment, len(base.M))
	for i, f := range base.M {
		rev.M[i] = core.Fragment{Name: f.Name, Regions: f.Regions.Rev()}
	}
	shapes = append(shapes, universeShape{name: "reversed-m", in: &rev, mask: sparse})

	single := *base
	split := func(frags []core.Fragment) []core.Fragment {
		var out []core.Fragment
		for _, f := range frags {
			for i, s := range f.Regions {
				out = append(out, core.Fragment{Name: fmt.Sprintf("%s.%d", f.Name, i), Regions: symbol.Word{s}})
			}
		}
		return out
	}
	single.H, single.M = split(base.H), split(base.M)
	shapes = append(shapes, universeShape{name: "single-symbol", in: &single, mask: sparse})
	return shapes
}

// universeRun is one solve of a mask-vs-dense comparison.
type universeRun struct {
	accepted []candKey
	score    float64
	matches  []core.Match
}

// TestMaskMatchesDenseUniverse is the positive-σ mask's oracle. Every
// I1/I2/I3 attempt and every TPA placement scores σ cells of one
// orientation class, so a fragment pair without a positive cell in either
// class can never raise the score: a solve over the mask (seed.Mask, the
// classic path's universe) must walk the same accepted-candidate sequence,
// and land on the same matches and score, as a solve over all H×M pairs.
// Each row runs one configuration on every shape, with the dense universe
// plugged in through Options.universe at the innermost solve, behind the
// Quantize and IntScore shadow recursions — where the mask is built.
func TestMaskMatchesDenseUniverse(t *testing.T) {
	shapes := universeShapes()
	configs := []struct {
		name   string
		opt    Options
		resume bool // resume both solves from a random prefix of the mask solve's log
	}{
		// Empty starts leave every round to the improvement methods, so
		// most rows start empty; one row starts from the 4-approximation.
		{name: "csr", opt: Options{Methods: AllMethods, Eps: 0.05}},
		{name: "full", opt: Options{Methods: FullOnly, Eps: 0.05}},
		{name: "border", opt: Options{Methods: BorderOnly, Eps: 0.05}},
		{name: "four-approx", opt: Options{Methods: AllMethods, Eps: 0.05, SeedWithFourApprox: true}},
		{name: "eps-zero", opt: Options{Methods: AllMethods}},
		{name: "quantize", opt: Options{Methods: AllMethods, Quantize: true}},
		{name: "int-score", opt: Options{Methods: AllMethods, Eps: 0.05, IntScore: true}},
		{name: "resume", opt: Options{Methods: AllMethods, Eps: 0.05}, resume: true},
		{name: "oracle", opt: Options{Methods: AllMethods, Eps: 0.05, engine: fullReeval}},
	}
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for _, sh := range shapes {
		dense := sh.in.NumFrags(core.SpeciesH) * sh.in.NumFrags(core.SpeciesM)
		sh.mask(t, len(seed.Mask(sh.in)), dense)
		for _, c := range configs {
			name := sh.name + "/" + c.name
			solve := func(opt Options, universe func(*core.Instance) [][2]int32) universeRun {
				var r universeRun
				calls := 0
				opt.universe = func(in *core.Instance) [][2]int32 {
					calls++
					return universe(in)
				}
				opt.onAccept = func(k candKey) { r.accepted = append(r.accepted, k) }
				sol, _, err := Improve(sh.in, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if calls != 1 {
					t.Fatalf("%s: universe built %d times, want once at the innermost solve", name, calls)
				}
				r.score, r.matches = sol.Score(), sol.Matches
				return r
			}
			opt := c.opt
			if c.resume {
				full := solve(opt, seed.Mask)
				opt.Resume = full.accepted[:rng.Intn(len(full.accepted)+1)]
			}
			mask := solve(opt, seed.Mask)
			ref := solve(opt, allPairs)
			if !reflect.DeepEqual(mask.accepted, ref.accepted) {
				t.Errorf("%s: accepted sequence diverges:\n%v\nwant\n%v", name, mask.accepted, ref.accepted)
			}
			if mask.score != ref.score || !reflect.DeepEqual(mask.matches, ref.matches) {
				t.Errorf("%s: solution diverges (score %v vs %v)", name, mask.score, ref.score)
			}
			if sh.name == "zero-sigma" && (len(mask.accepted) != 0 || len(mask.matches) != 0) {
				t.Errorf("%s: zero σ accepted %d attempts into %d matches; the empty start must come back",
					name, len(mask.accepted), len(mask.matches))
			}
			accepted += len(mask.accepted)
		}
	}
	if accepted == 0 {
		t.Error("no row accepted an attempt: the parity table compares nothing")
	}
}
