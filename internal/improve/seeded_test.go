package improve

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/score"
	"repro/internal/seed"
)

// parityRun is one solve of a mask-vs-dense comparison: the accepted
// attempts, the score and the matches, plus the σ scorer of every instance
// the pair universe was built against.
type parityRun struct {
	accepted []candKey
	score    float64
	matches  []core.Match
	sigmas   []score.Scorer
}

// solveOver runs Improve with the pair universe replaced by universe.
func solveOver(t *testing.T, in *core.Instance, opt Options, universe func(*core.Instance) [][2]int32) *parityRun {
	t.Helper()
	r := &parityRun{}
	opt.universe = func(in *core.Instance) [][2]int32 {
		r.sigmas = append(r.sigmas, in.Sigma)
		return universe(in)
	}
	opt.onAccept = func(k candKey) { r.accepted = append(r.accepted, k) }
	sol, _, err := Improve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	r.score, r.matches = sol.Score(), sol.Matches
	return r
}

// TestSeededExhaustiveParity checks that the classic pair universe, the
// positive-σ mask (seed.Mask), is lossless: a pair outside it can never
// produce a strictly positive gain in I1/I2/I3 or a positive TPA placement
// (internal/seed doc). A solve over the mask must therefore walk the exact
// same accepted-attempt sequence and land on the same matches and score as
// a solve over all H×M pairs.
func TestSeededExhaustiveParity(t *testing.T) {
	accepted := 0
	for _, gseed := range []int64{3, 7, 11, 19, 42} {
		cfg := gen.DefaultConfig(gseed)
		cfg.Regions = 40
		w := gen.Generate(cfg)
		opt := Options{Methods: AllMethods, Eps: 0.05, SeedWithFourApprox: true}
		got := solveOver(t, w.Instance, opt, seed.Mask)
		ref := solveOver(t, w.Instance, opt, allPairs)
		if n, dense := len(seed.Mask(w.Instance)), w.Instance.NumFrags(core.SpeciesH)*w.Instance.NumFrags(core.SpeciesM); n == 0 || n >= dense {
			t.Errorf("seed %d: mask holds %d of %d pairs: not a proper sparse universe", gseed, n, dense)
		}
		accepted += len(ref.accepted)
		if !reflect.DeepEqual(got.accepted, ref.accepted) {
			t.Errorf("seed %d: accepted sequence diverges:\n%v\nwant\n%v",
				gseed, got.accepted, ref.accepted)
		}
		if got.score != ref.score || !reflect.DeepEqual(got.matches, ref.matches) {
			t.Errorf("seed %d: solution diverges (score %v vs %v)",
				gseed, got.score, ref.score)
		}
	}
	if accepted == 0 {
		t.Error("no seed accepted an attempt: the parity check compares nothing")
	}
}

// TestSeededParityUnderScaling repeats the mask-vs-dense parity check
// through the quantized and int32 scoring paths, which re-enter Improve
// against a shadow σ: the universe must be built once, at the innermost
// solve, against the prepared shadow table, not the original.
func TestSeededParityUnderScaling(t *testing.T) {
	for _, mode := range []struct {
		name string
		set  func(*Options)
	}{
		{"quantize", func(o *Options) { o.Quantize = true }},
		{"int32", func(o *Options) { o.IntScore = true }},
	} {
		cfg := gen.DefaultConfig(7)
		cfg.Regions = 40
		w := gen.Generate(cfg)
		opt := Options{Methods: AllMethods, Eps: 0.05, SeedWithFourApprox: true}
		mode.set(&opt)
		got := solveOver(t, w.Instance, opt, seed.Mask)
		ref := solveOver(t, w.Instance, opt, allPairs)
		for _, r := range []*parityRun{got, ref} {
			if len(r.sigmas) != 1 {
				t.Fatalf("%s: universe built %d times, want once", mode.name, len(r.sigmas))
			}
			if r.sigmas[0] == w.Instance.Sigma {
				t.Errorf("%s: universe built against the original σ, not the shadow table", mode.name)
			}
		}
		if !reflect.DeepEqual(got.accepted, ref.accepted) {
			t.Errorf("%s: accepted sequence diverges:\n%v\nwant\n%v",
				mode.name, got.accepted, ref.accepted)
		}
		if got.score != ref.score || !reflect.DeepEqual(got.matches, ref.matches) {
			t.Errorf("%s: mask solve diverges from the dense solve (score %v vs %v)",
				mode.name, got.score, ref.score)
		}
	}
}

// TestSeededRecall pins the practical (minimizer) pipeline's solution
// quality on generated instances: the seeded solve must recover nearly all
// of the classic solve's score. The bound is intentionally loose — seeding
// is allowed to miss weak spurious pairs — but a recall collapse (e.g. the
// σ-translation or chain windows breaking) lands far below it.
func TestSeededRecall(t *testing.T) {
	for _, gseed := range []int64{3, 7, 11} {
		cfg := gen.DefaultConfig(gseed)
		cfg.Regions = 120
		w := gen.Generate(cfg)
		base := Options{Methods: AllMethods, Eps: 0.05, SeedWithFourApprox: true}
		seeded := base
		seeded.Seeded = true
		solA, _, err := Improve(w.Instance, base)
		if err != nil {
			t.Fatalf("seed %d classic: %v", gseed, err)
		}
		solB, stats, err := Improve(w.Instance, seeded)
		if err != nil {
			t.Fatalf("seed %d seeded: %v", gseed, err)
		}
		if stats.SeedPairs == 0 {
			t.Fatalf("seed %d: seeding produced no pairs", gseed)
		}
		if rec := solB.Score() / solA.Score(); rec < 0.95 {
			t.Errorf("seed %d: seeded recall %.3f (score %v vs %v, %d pairs, %d anchors)",
				gseed, rec, solB.Score(), solA.Score(), stats.SeedPairs, stats.SeedAnchors)
		}
	}
}
