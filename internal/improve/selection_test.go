package improve

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/improve/enum"
)

// TestLazySelectionMatchesFull is the lazy selection engine's oracle test:
// the generation-stamped gain heap must drive the solver through the exact
// same accepted-attempt sequence — and to a bit-identical final match set
// and score — as the cache-free full re-evaluation oracle (fullReeval,
// oracle_test.go), across seeds and all three method families. The accepted
// sequence is observed through the onAccept hook, so divergence is caught at
// the first differing attempt, not just in the final solution.
//
// The short-contig rows repeat the comparison on the production universes
// (the classic positive-σ mask and minimizer seeding) over larger
// instances from an empty start, where an I3 gain reads only the re-linked
// fragments' partners: the shrunken read sets must still cover everything a
// gain depends on. The set must accept at least one I3, so those rows cannot
// pass without exercising the rewiring path.
func TestLazySelectionMatchesFull(t *testing.T) {
	for _, seed := range []int64{2, 3, 5, 7, 11, 13, 17, 19, 23} {
		for _, m := range []struct {
			name    string
			methods Methods
		}{
			{"csr", AllMethods},
			{"full", FullOnly},
			{"border", BorderOnly},
		} {
			cfg := gen.DefaultConfig(seed)
			cfg.Regions = 40
			w := gen.Generate(cfg)
			base := Options{Methods: m.methods, Eps: 0.05, SeedWithFourApprox: seed%2 == 0}
			name := fmt.Sprintf("seed %d %s", seed, m.name)
			lazy, ref := lazyVsOracle(t, name, w.Instance, base)
			// The engine must actually be lazy: on a multi-round solve the
			// gains computed must undercut the oracle's full-list walks, and
			// some candidates must be carried untouched.
			if lazy.stats.Rounds > 1 {
				if lazy.stats.Evaluated >= ref.stats.Evaluated {
					t.Errorf("%s: lazy evaluated %d ≥ oracle %d — no laziness",
						name, lazy.stats.Evaluated, ref.stats.Evaluated)
				}
				if lazy.stats.Skipped == 0 {
					t.Errorf("%s: lazy run skipped no cached candidates: %+v",
						name, lazy.stats)
				}
			}
		}
	}

	i3 := 0
	for _, gseed := range []int64{2, 6, 7, 9} {
		cfg := gen.DefaultConfig(gseed)
		cfg.Regions = 120
		cfg.MeanContig = 6
		w := gen.Generate(cfg)
		for _, u := range []struct {
			name   string
			seeded bool
		}{
			{"minimizer", true},
			{"mask", false},
		} {
			// An empty start leaves the rounds to the improvement methods,
			// which is where the mask universe accepts its I3s.
			base := Options{Methods: AllMethods, Eps: 0.05, Seeded: u.seeded}
			lazy, _ := lazyVsOracle(t, fmt.Sprintf("seed %d %s", gseed, u.name), w.Instance, base)
			for _, k := range lazy.accepted {
				if k.Kind == enum.KindI3 {
					i3++
				}
			}
		}
	}
	if i3 == 0 {
		t.Error("short-contig rows accepted no I3 rewiring: the sparse I3 path went unexercised")
	}
}

// oracleRun is one solve of a lazy-vs-oracle comparison.
type oracleRun struct {
	accepted []candKey
	stats    Stats
	score    float64
	matches  any
}

// lazyVsOracle solves in under opt with the production engine and with the
// fullReeval oracle and reports any divergence in the accepted sequence,
// rounds, accepted count, score or match set.
func lazyVsOracle(t *testing.T, name string, in *core.Instance, opt Options) (lazy, ref *oracleRun) {
	t.Helper()
	solve := func(engine string, opt Options) *oracleRun {
		r := &oracleRun{}
		opt.onAccept = func(k candKey) { r.accepted = append(r.accepted, k) }
		sol, stats, err := Improve(in, opt)
		if err != nil {
			t.Fatalf("%s %s: %v", name, engine, err)
		}
		r.stats, r.score, r.matches = stats, sol.Score(), sol.Matches
		return r
	}
	lazy = solve("lazy", opt)
	opt.engine = fullReeval
	ref = solve("oracle", opt)
	if !reflect.DeepEqual(lazy.accepted, ref.accepted) {
		t.Errorf("%s: accepted sequence diverges:\n%v\nwant\n%v", name, lazy.accepted, ref.accepted)
	}
	if lazy.stats.Rounds != ref.stats.Rounds || lazy.stats.Accepted != ref.stats.Accepted {
		t.Errorf("%s: rounds/accepted diverge: %+v vs %+v", name, lazy.stats, ref.stats)
	}
	if lazy.score != ref.score || !reflect.DeepEqual(lazy.matches, ref.matches) {
		t.Errorf("%s: solution diverges (score %v vs %v)", name, lazy.score, ref.score)
	}
	return lazy, ref
}

// TestLazySelectionModes covers the lazy engine under the remaining solver
// modes — quantized scaling, integer kernels, an empty start, and eps 0 —
// against the full re-evaluation
// oracle, so no mode silently falls off the bit-identical contract. The
// oracle runs behind the same shadow recursions and seeding as the engine.
func TestLazySelectionModes(t *testing.T) {
	cfg := gen.DefaultConfig(9)
	cfg.Regions = 40
	w := gen.Generate(cfg)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"quantize", Options{Quantize: true, SeedWithFourApprox: true}},
		{"int-score", Options{IntScore: true, Eps: 0.05, SeedWithFourApprox: true}},
		{"empty-start", Options{Eps: 0.05}},
		{"eps-zero", Options{Eps: 0, MaxRounds: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lazySol, lazyStats, err := Improve(w.Instance, tc.opt)
			if err != nil {
				t.Fatalf("lazy: %v", err)
			}
			oracle := tc.opt
			oracle.engine = fullReeval
			ref, refStats, err := Improve(w.Instance, oracle)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if lazySol.Score() != ref.Score() || lazyStats.Accepted != refStats.Accepted ||
				lazyStats.Rounds != refStats.Rounds {
				t.Errorf("diverged: lazy score %v (%+v) vs oracle %v (%+v)",
					lazySol.Score(), lazyStats, ref.Score(), refStats)
			}
			if !reflect.DeepEqual(lazySol.Matches, ref.Matches) {
				t.Errorf("match sets diverge")
			}
		})
	}
}

// TestLazySelectionCancel drives the lazy engine with the deterministic
// countCtx probe at several depths: cancellation must surface promptly with
// no solution, including mid-refill (the refill batches poll the context
// between simulations).
func TestLazySelectionCancel(t *testing.T) {
	cfg := gen.DefaultConfig(5)
	cfg.Regions = 40
	w := gen.Generate(cfg)
	for _, after := range []int64{0, 1, 7, 50, 400} {
		ctx := newCountCtx(after)
		sol, _, err := Improve(w.Instance, Options{Eps: 0.05, SeedWithFourApprox: true, Ctx: ctx})
		if err != context.Canceled {
			t.Fatalf("after %d polls: err = %v, want context.Canceled", after, err)
		}
		if sol != nil {
			t.Fatalf("after %d polls: got a solution alongside the error", after)
		}
	}
}

// heapSlots drains the selector's heap destructively, returning the slot
// order — test helper for inspecting the selection order.
func heapSlots(s *lazySel) []int32 {
	var out []int32
	for len(s.heap) > 0 {
		top := s.heap[0]
		out = append(out, top)
		s.heapRemove(top)
	}
	return out
}

// TestLazyHeapRepair unit-tests the selector's repair machinery on a
// hand-built instance: dirty re-keying moves a slot to the stale queue and
// out of the heap, stamp mismatches kill outdated dependency and stale
// entries, block rebuilds free and re-allocate candidates, and the heap
// drains in (gain, canonical-order) sequence throughout. Everything is
// deterministic — no solver, no goroutines.
func TestLazyHeapRepair(t *testing.T) {
	in := core.PaperExample()
	var sel lazySel
	sel.init(in, true, true, densePairSet(in))

	mk := func(gi, lo, hi int) candKey {
		return candKey{Kind: enum.KindI1, F: core.FragRef{Sp: core.SpeciesH, Idx: 0},
			G: core.FragRef{Sp: core.SpeciesM, Idx: gi}, A1: lo, A2: hi}
	}
	reads := func(frs ...core.FragRef) []readEntry {
		var out []readEntry
		for _, fr := range frs {
			out = append(out, readEntry{fr: fr})
		}
		return out
	}
	g0 := core.FragRef{Sp: core.SpeciesM, Idx: 0}
	g1 := core.FragRef{Sp: core.SpeciesM, Idx: 1}

	a := sel.alloc(mk(0, 0, 1))
	b := sel.alloc(mk(0, 0, 2))
	c := sel.alloc(mk(1, 0, 1))
	if sel.liveCount != 3 || len(sel.staleList) != 3 {
		t.Fatalf("after alloc: liveCount %d staleList %d", sel.liveCount, len(sel.staleList))
	}
	// Record gains, draining the stale queue as the driver's refill would:
	// b on top, then a (tie with c broken by canonical order: G.Idx 0 < 1),
	// then c.
	sel.record(a, 2, reads(g0))
	sel.record(b, 5, reads(g0))
	sel.record(c, 2, reads(g1))
	sel.staleList = sel.staleList[:0]
	if top, ok := sel.peek(); !ok || top != b {
		t.Fatalf("peek = %d, want %d", top, b)
	}
	order := heapSlots(&sel)
	if !reflect.DeepEqual(order, []int32{b, a, c}) {
		t.Fatalf("drain order %v, want [%d %d %d] (gain desc, ties canonical)", order, b, a, c)
	}
	for _, id := range order {
		sel.heapPush(id) // restore
	}

	// Dirty g0: a and b re-key out of the heap onto the stale queue; c is
	// untouched and becomes the top.
	sel.dirty([]core.FragRef{g0})
	if top, ok := sel.peek(); !ok || top != c {
		t.Fatalf("after dirty: peek = %v, want %d", top, c)
	}
	if got := len(sel.staleList); got != 2 {
		t.Fatalf("after dirty: staleList %d, want 2", got)
	}
	if !sel.slots[a].stale || !sel.slots[b].stale || sel.slots[c].stale {
		t.Fatalf("staleness flags wrong: a=%v b=%v c=%v",
			sel.slots[a].stale, sel.slots[b].stale, sel.slots[c].stale)
	}
	// A second dirty sweep of g0 is a no-op: the dependency list was
	// consumed and the slots' stamps moved on.
	sel.dirty([]core.FragRef{g0})
	if got := len(sel.staleList); got != 2 {
		t.Fatalf("idempotent dirty appended: staleList %d, want 2", got)
	}
	// Re-record a with a higher gain: it must rejoin the heap above c.
	sel.record(a, 9, reads(g0))
	if top, ok := sel.peek(); !ok || top != a {
		t.Fatalf("after re-record: peek = %v, want %d", top, a)
	}

	// Free b while stale: its staleList entry must be ignored by the stamp
	// filter, and its slot recycles for a fresh candidate.
	sel.freeSlot(b)
	if sel.liveCount != 2 {
		t.Fatalf("liveCount after free = %d, want 2", sel.liveCount)
	}
	d := sel.alloc(mk(1, 1, 2))
	if d != b {
		t.Fatalf("slot not recycled: got %d, want %d", d, b)
	}
	valid := 0
	for _, ref := range sel.staleList {
		if sl := &sel.slots[ref.slot]; sl.live && sl.stale && sl.stamp == ref.stamp {
			valid++
		}
	}
	// Only the recycled slot d's fresh entry survives the stamp filter: b's
	// old entry died with the free, and a was re-recorded.
	if valid != 1 {
		t.Fatalf("stale entries surviving stamp filter = %d, want 1", valid)
	}

	// Heap removal from the middle keeps the heap property: fill with
	// distinct gains, remove an inner element, and drain.
	sel2 := lazySel{}
	sel2.init(in, true, false, densePairSet(in))
	var ids []int32
	for i, g := range []float64{3, 7, 1, 9, 5} {
		id := sel2.alloc(mk(0, i, i+1))
		sel2.record(id, g, reads(g0))
		ids = append(ids, id)
	}
	sel2.heapRemove(ids[1]) // gain 7
	got := heapSlots(&sel2)
	want := []int32{ids[3], ids[4], ids[0], ids[2]} // 9, 5, 3, 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drain after middle removal = %v, want %v", got, want)
	}
}

// TestLazySharedPoolConcurrent runs four lazy solves concurrently, each on
// its own goroutine, two per workload: each pair shares one σ table, so the
// two solves race to prepare σ and its cached transpose, and then share
// them. Every result must be bit-identical to a solo reference solved
// afterwards. Run under -race in CI, this is the data-race guard for what
// concurrent solves still share.
func TestLazySharedPoolConcurrent(t *testing.T) {
	const solvers = 4
	type res struct {
		score float64
		stats Stats
		err   error
	}
	ws := make([]*gen.Workload, solvers/2)
	for i := range ws {
		cfg := gen.DefaultConfig(int64(40 + i))
		cfg.Regions = 40
		ws[i] = gen.Generate(cfg)
	}
	opt := Options{Eps: 0.05, SeedWithFourApprox: true}
	out := make([]res, solvers)
	done := make(chan int, solvers)
	for i := 0; i < solvers; i++ {
		i := i
		go func() {
			sol, stats, err := Improve(ws[i%len(ws)].Instance, opt)
			if err == nil {
				out[i] = res{score: sol.Score(), stats: stats}
			} else {
				out[i] = res{err: err}
			}
			done <- i
		}()
	}
	for range out {
		<-done
	}
	for i, r := range out {
		if r.err != nil {
			t.Fatalf("solver %d: %v", i, r.err)
		}
		sol, stats, err := Improve(ws[i%len(ws)].Instance, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ref := (res{score: sol.Score(), stats: stats}); r != ref {
			t.Errorf("solver %d diverged beside concurrent solves: %+v vs solo %+v", i, r, ref)
		}
	}
}
