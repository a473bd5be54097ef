package isp

import (
	"math/rand"
	"slices"
	"testing"
)

func randInstance(r *rand.Rand, n, jobs, span int) []Interval {
	out := make([]Interval, n)
	for i := range out {
		lo := r.Intn(span)
		hi := lo + 1 + r.Intn(span/4+1)
		out[i] = Interval{
			ID:     i,
			Job:    r.Intn(jobs),
			Lo:     lo,
			Hi:     hi,
			Profit: float64(1 + r.Intn(20)),
		}
	}
	return out
}

func TestConflicts(t *testing.T) {
	a := Interval{Job: 1, Lo: 0, Hi: 5}
	cases := []struct {
		b    Interval
		want bool
	}{
		{Interval{Job: 2, Lo: 5, Hi: 8}, false},  // touching, half-open
		{Interval{Job: 2, Lo: 4, Hi: 8}, true},   // overlap
		{Interval{Job: 1, Lo: 10, Hi: 12}, true}, // same job
		{Interval{Job: 2, Lo: 0, Hi: 1}, true},
		{Interval{Job: 3, Lo: 6, Hi: 7}, false},
	}
	for _, c := range cases {
		if got := a.Conflicts(c.b); got != c.want {
			t.Errorf("Conflicts(%+v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Interval{{Job: 0, Lo: 0, Hi: 2}, {Job: 1, Lo: 2, Hi: 4}}
	if err := Validate(good); err != nil {
		t.Fatal(err)
	}
	overlap := []Interval{{Job: 0, Lo: 0, Hi: 3}, {Job: 1, Lo: 2, Hi: 4}}
	if err := Validate(overlap); err == nil {
		t.Fatal("overlap accepted")
	}
	dupJob := []Interval{{Job: 0, Lo: 0, Hi: 1}, {Job: 0, Lo: 2, Hi: 3}}
	if err := Validate(dupJob); err == nil {
		t.Fatal("duplicate job accepted")
	}
	empty := []Interval{{Job: 0, Lo: 1, Hi: 1}}
	if err := Validate(empty); err == nil {
		t.Fatal("empty interval accepted")
	}
}

func TestExactSmallKnown(t *testing.T) {
	// Two jobs over one shared slot plus an independent slot.
	items := []Interval{
		{ID: 0, Job: 0, Lo: 0, Hi: 2, Profit: 10},
		{ID: 1, Job: 1, Lo: 1, Hi: 3, Profit: 9},
		{ID: 2, Job: 1, Lo: 4, Hi: 6, Profit: 5},
	}
	res := Exact(items)
	if res.Total != 15 {
		t.Fatalf("Exact total %v, want 15", res.Total)
	}
	if err := Validate(res.Selected); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPhaseFeasibleAndWithinRatio(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		items := randInstance(r, 3+r.Intn(12), 1+r.Intn(5), 12)
		tp := TwoPhase(items)
		if err := Validate(tp.Selected); err != nil {
			t.Fatalf("two-phase infeasible: %v (items %+v)", err, items)
		}
		opt := Exact(items)
		if tp.Total*2 < opt.Total-1e-9 {
			t.Fatalf("two-phase ratio violated: %v vs opt %v\nitems %+v",
				tp.Total, opt.Total, items)
		}
		if tp.Total > opt.Total+1e-9 {
			t.Fatalf("two-phase beats exact?! %v vs %v", tp.Total, opt.Total)
		}
	}
}

func TestGreedyFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		items := randInstance(r, 3+r.Intn(15), 1+r.Intn(5), 15)
		g := Greedy(items)
		if err := Validate(g.Selected); err != nil {
			t.Fatalf("greedy infeasible: %v", err)
		}
		opt := Exact(items)
		if g.Total > opt.Total+1e-9 {
			t.Fatalf("greedy beats exact: %v vs %v", g.Total, opt.Total)
		}
	}
}

func TestTwoPhaseDropsNonPositive(t *testing.T) {
	items := []Interval{
		{ID: 0, Job: 0, Lo: 0, Hi: 2, Profit: 0},
		{ID: 1, Job: 1, Lo: 0, Hi: 2, Profit: -5},
		{ID: 2, Job: 2, Lo: 3, Hi: 3, Profit: 7}, // empty
	}
	res := TwoPhase(items)
	if len(res.Selected) != 0 || res.Total != 0 {
		t.Fatalf("selected %+v", res.Selected)
	}
	if res := Exact(items); len(res.Selected) != 0 {
		t.Fatalf("exact selected %+v", res.Selected)
	}
}

func TestTwoPhaseEmpty(t *testing.T) {
	if res := TwoPhase(nil); res.Total != 0 || len(res.Selected) != 0 {
		t.Fatal("empty instance mishandled")
	}
}

func TestTwoPhaseChainExample(t *testing.T) {
	// A classic two-phase stress: a chain of pairwise-overlapping unit
	// profits against one big interval.
	items := []Interval{
		{ID: 0, Job: 0, Lo: 0, Hi: 10, Profit: 11},
		{ID: 1, Job: 1, Lo: 0, Hi: 2, Profit: 6},
		{ID: 2, Job: 2, Lo: 2, Hi: 4, Profit: 6},
		{ID: 3, Job: 3, Lo: 4, Hi: 6, Profit: 6},
		{ID: 4, Job: 4, Lo: 6, Hi: 8, Profit: 6},
		{ID: 5, Job: 5, Lo: 8, Hi: 10, Profit: 6},
	}
	opt := Exact(items) // the five small ones: 30
	if opt.Total != 30 {
		t.Fatalf("exact = %v, want 30", opt.Total)
	}
	tp := TwoPhase(items)
	if tp.Total*2 < opt.Total {
		t.Fatalf("two-phase %v below half of %v", tp.Total, opt.Total)
	}
}

func TestTwoPhaseSameJobChain(t *testing.T) {
	// All intervals share a job: selection must be a single interval.
	items := []Interval{
		{ID: 0, Job: 7, Lo: 0, Hi: 1, Profit: 3},
		{ID: 1, Job: 7, Lo: 5, Hi: 6, Profit: 4},
		{ID: 2, Job: 7, Lo: 10, Hi: 11, Profit: 5},
	}
	res := TwoPhase(items)
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d intervals from one job", len(res.Selected))
	}
	if res.Total < 2.5 { // at least half of opt 5
		t.Fatalf("total %v below ratio", res.Total)
	}
}

func TestTwoPhaseLargeRatioSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := rand.New(rand.NewSource(11))
	worst := 1.0
	for trial := 0; trial < 60; trial++ {
		items := randInstance(r, 14, 4, 10)
		tp := TwoPhase(items)
		opt := Exact(items)
		if opt.Total > 0 {
			ratio := tp.Total / opt.Total
			if ratio < worst {
				worst = ratio
			}
		}
	}
	if worst < 0.5 {
		t.Fatalf("worst observed ratio %v < 0.5", worst)
	}
}

// TestTwoPhaseScratchSurvivesPanic reuses one Scratch across calls that
// panic midway through the evaluation phase, after writing the per-job
// tables and the Fenwick tree: every following call on it must select
// exactly what TwoPhase selects on a fresh scratch.
func TestTwoPhaseScratchSurvivesPanic(t *testing.T) {
	const jobs, span = 6, 40
	r := rand.New(rand.NewSource(61))
	var s Scratch
	for trial := 0; trial < 100; trial++ {
		ivs := randInstance(r, 30, jobs, span)
		// The last interval in evaluation order names a job past numJobs.
		bad := append(slices.Clone(ivs), Interval{ID: len(ivs), Job: 1 << 20, Lo: 0, Hi: 2 * span, Profit: 1})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("trial %d: job past numJobs did not panic", trial)
				}
			}()
			TwoPhaseScratch(&s, bad, jobs)
		}()
		ivs = randInstance(r, 30, jobs, span)
		got, want := TwoPhaseScratch(&s, ivs, jobs), TwoPhase(ivs)
		if got.Total != want.Total || !slices.Equal(got.Selected, want.Selected) {
			t.Fatalf("trial %d: after a panicked call selected %+v (total %v), want %+v (total %v)",
				trial, got.Selected, got.Total, want.Selected, want.Total)
		}
	}
}
