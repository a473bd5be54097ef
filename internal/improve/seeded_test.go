package improve

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/seed"
)

// TestSeededExhaustiveParity is the seeded-candidate subsystem's oracle:
// with seed.Params.Exhaustive the pair universe is the positive-σ mask,
// which the package-level proof (internal/seed doc) shows is lossless — a
// pair outside it can never produce a strictly positive gain in I1/I2/I3 or
// a positive TPA placement. The solve must therefore walk the exact same
// accepted-attempt sequence and land on the same matches and score as the
// classic all-pairs solve.
func TestSeededExhaustiveParity(t *testing.T) {
	for _, gseed := range []int64{3, 7, 11, 19, 42} {
		cfg := gen.DefaultConfig(gseed)
		cfg.Regions = 40
		w := gen.Generate(cfg)
		base := Options{Methods: AllMethods, Eps: 0.05, SeedWithFourApprox: true}
		type run struct {
			name     string
			opt      Options
			accepted []candKey
			score    float64
			matches  any
		}
		runs := []*run{
			{name: "classic", opt: base},
			{name: "seeded-exhaustive", opt: base},
		}
		runs[1].opt.Seeded = true
		runs[1].opt.SeedParams = seed.Params{Exhaustive: true}
		for _, r := range runs {
			r.opt.onAccept = func(k candKey) { r.accepted = append(r.accepted, k) }
			sol, _, err := Improve(w.Instance, r.opt)
			if err != nil {
				t.Fatalf("seed %d %s: %v", gseed, r.name, err)
			}
			r.score, r.matches = sol.Score(), sol.Matches
		}
		ref, got := runs[0], runs[1]
		if !reflect.DeepEqual(got.accepted, ref.accepted) {
			t.Errorf("seed %d: accepted sequence diverges:\n%v\nwant\n%v",
				gseed, got.accepted, ref.accepted)
		}
		if got.score != ref.score || !reflect.DeepEqual(got.matches, ref.matches) {
			t.Errorf("seed %d: solution diverges (score %v vs %v)",
				gseed, got.score, ref.score)
		}
	}
}

// TestSeededParityUnderScaling repeats the exhaustive-parity check through
// the quantized and int32 scoring paths, which re-enter Improve against a
// shadow σ: Seeded must propagate to the innermost solve and seed against
// the prepared shadow table, not the original.
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
		base := Options{Methods: AllMethods, Eps: 0.05, SeedWithFourApprox: true}
		mode.set(&base)
		seeded := base
		seeded.Seeded = true
		seeded.SeedParams = seed.Params{Exhaustive: true}
		solA, _, err := Improve(w.Instance, base)
		if err != nil {
			t.Fatalf("%s classic: %v", mode.name, err)
		}
		solB, _, err := Improve(w.Instance, seeded)
		if err != nil {
			t.Fatalf("%s seeded: %v", mode.name, err)
		}
		if solA.Score() != solB.Score() || !reflect.DeepEqual(solA.Matches, solB.Matches) {
			t.Errorf("%s: seeded-exhaustive diverges (score %v vs %v)",
				mode.name, solB.Score(), solA.Score())
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
