package fragalign

import (
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// raceBuild reports whether the test binary was built with -race. The race
// detector drops sync.Pool puts on purpose, so allocation counts of a warm
// solve mean nothing under it.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// seededOpts are the options of the genome-seeded workload's solves.
var seededOpts = []Option{WithFourApproxSeed(true), WithIntScore(false), WithSeededCandidates(true)}

// warmSolveMaxAllocs pins what a warm seeded solve of the genome-shaped
// instance allocates: its solution, conjecture and result, and little else.
// It measured 28 allocs/op on the pooled workspaces; before them a solve
// made ~20,000.
const warmSolveMaxAllocs = 60

// TestWarmSolveAllocCeiling solves the genome-shaped instance on one
// goroutine and pins the allocations of the solves after the first: they
// reuse the first solve's workspaces (the improve state, the
// 4-approximation's work, the seed and site indexes) instead of rebuilding
// their tables.
func TestWarmSolveAllocCeiling(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector defeats sync.Pool caching on purpose")
	}
	in := genomeShaped()
	solve := func() {
		if _, err := Solve(in, CSRImprove, seededOpts...); err != nil {
			t.Fatal(err)
		}
	}
	// Collections empty the pools, which would make a measured solve a
	// cold one; keep the collector off while measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(5, solve); avg > warmSolveMaxAllocs {
		t.Errorf("warm seeded solve: %v allocs/op, want ≤ %d", avg, warmSolveMaxAllocs)
	}
}

// resultCopy is a deep copy of the parts of a Result a caller keeps.
type resultCopy struct {
	score      float64
	matches    []Match
	h, m       []Symbol
	hOrder     []OrientedFrag
	mOrder     []OrientedFrag
	matchOrder []int
	conjScore  float64
}

func copyResult(r *Result) resultCopy {
	c := r.Conjecture
	return resultCopy{
		score:      r.Score,
		matches:    slices.Clone(r.Solution.Matches),
		h:          slices.Clone(c.H),
		m:          slices.Clone(c.M),
		hOrder:     slices.Clone(c.HOrder),
		mOrder:     slices.Clone(c.MOrder),
		matchOrder: slices.Clone(c.MatchOrder),
		conjScore:  c.Score,
	}
}

// TestSolveResultOutlivesWorkspace takes the result of one solve, runs
// other solves on the same goroutine — which reuse and overwrite every
// pooled workspace the first one used — and checks that the first result
// is unchanged: no returned solution, conjecture or layout aliases a
// workspace.
func TestSolveResultOutlivesWorkspace(t *testing.T) {
	a := genomeShaped()
	cfg := DefaultGenConfig(5)
	cfg.Regions = 240
	b := Generate(cfg).Instance
	resA, err := Solve(a, CSRImprove, seededOpts...)
	if err != nil {
		t.Fatal(err)
	}
	want := copyResult(resA)
	for _, opts := range [][]Option{seededOpts, {WithFourApproxSeed(true)}} {
		if _, err := Solve(b, CSRImprove, opts...); err != nil {
			t.Fatal(err)
		}
		if _, err := Solve(b, FourApprox); err != nil {
			t.Fatal(err)
		}
		if got := copyResult(resA); !reflect.DeepEqual(got, want) {
			t.Fatal("a later solve changed an earlier solve's result")
		}
		if !slices.Equal(resA.LayoutH, want.hOrder) || !slices.Equal(resA.LayoutM, want.mOrder) {
			t.Fatal("a later solve changed an earlier solve's layout")
		}
	}
}

// TestConcurrentSolvesMatchSequential solves a set of instances on several
// goroutines at once, all drawing workspaces from the same pools, and checks
// every result against the instance's sequential solve. Run it under -race
// to check that no workspace is shared between concurrent solves.
func TestConcurrentSolvesMatchSequential(t *testing.T) {
	type job struct {
		in   *Instance
		opts []Option
	}
	var jobs []job
	for i, regions := range []int{60, 120, 180, 240} {
		cfg := DefaultGenConfig(int64(40 + i))
		cfg.Regions = regions
		in := Generate(cfg).Instance
		jobs = append(jobs, job{in, []Option{WithFourApproxSeed(true)}}, job{in, seededOpts})
	}
	want := make([]resultCopy, len(jobs))
	for i, j := range jobs {
		res, err := Solve(j.in, CSRImprove, j.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = copyResult(res)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				i := (k + w) % len(jobs) // each worker starts elsewhere
				res, err := Solve(jobs[i].in, CSRImprove, jobs[i].opts...)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(copyResult(res), want[i]) {
					t.Errorf("worker %d, job %d: concurrent result differs from the sequential one", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
