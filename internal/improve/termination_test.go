package improve

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/onecsr"
	"repro/internal/score"
)

// TestEpsZeroTerminates pins the strict-rise acceptance rule. On this
// instance, delta-tracked gains alone accept a "gain" every round after the
// first that only re-rounds the total, flipping the score by one ulp until
// MaxRounds. The solve must stop at a local optimum, score no lower than at
// Eps 0.01, and each accepted attempt must strictly raise the total summed
// in fixed ascending-ID order — checked by replaying the accepted ops on a
// fresh state exactly as Resume does.
func TestEpsZeroTerminates(t *testing.T) {
	cfg := gen.DefaultConfig(2)
	cfg.Regions = 240
	in := gen.Generate(cfg).Instance
	const maxRounds = 60
	ref, _, err := Improve(in, Options{SeedWithFourApprox: true, Eps: 0.01, MaxRounds: maxRounds})
	if err != nil {
		t.Fatal(err)
	}
	var accepted []candKey
	sol, stats, err := Improve(in, Options{SeedWithFourApprox: true, Eps: 0, MaxRounds: maxRounds,
		onAccept: func(k candKey) { accepted = append(accepted, k) }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds >= maxRounds {
		t.Fatalf("Eps 0 ran into MaxRounds (%d rounds, %d accepted)", stats.Rounds, stats.Accepted)
	}
	if sol.Score() < ref.Score() {
		t.Errorf("Eps 0 scored %v, below Eps 0.01's %v", sol.Score(), ref.Score())
	}
	if len(accepted) == 0 {
		t.Fatal("no attempt accepted: the rule went unexercised")
	}

	prepared := *in
	prepared.Sigma = score.Prepare(in.Sigma, in.MaxSymbolID())
	start, err := onecsr.FourApprox(&prepared)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(&prepared, start, densePairSet(&prepared))
	for i, k := range accepted {
		before := st.score()
		st.delta = 0
		runCand(st, k)
		if after := st.score(); !(after > before) {
			t.Errorf("accept %d (%s): fixed-order total %v → %v, not a strict rise", i, k, before, after)
		}
	}
	if got := st.score(); got != sol.Score() {
		t.Errorf("replayed total %v, solve reported %v", got, sol.Score())
	}
	t.Logf("Eps 0: %d rounds, %d accepted, score %v (Eps 0.01: %v)", stats.Rounds, stats.Accepted, sol.Score(), ref.Score())
}
