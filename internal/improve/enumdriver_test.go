package improve

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/improve/enum"
)

// TestIncrementalEnumMatchesFull checks the enumeration subsystem against
// from-scratch enumeration at the layer it caches. A test Enumerator rides
// along real solves: after every accepted attempt (observed through onAccept
// on the live state) it is repaired incrementally, and then
//
//   - its merged candidate list must equal a fresh Enumerator's list on the
//     same state, element for element, in canonical order (I1/I2 strictly
//     ascending under enum.Less);
//   - Repair must have reported exactly the pieces whose values moved — the
//     targeted-repair contract the lazy engine's heap rebuilds rely on;
//   - building the list after Repair must refresh nothing.
//
// Seeds × method families × the classic pair universe (the positive-σ
// mask) and the dense test universe (all pairs), from an empty start so
// solves run many rounds.
func TestIncrementalEnumMatchesFull(t *testing.T) {
	for _, gseed := range []int64{3, 7, 11, 19} {
		for _, m := range []struct {
			name    string
			methods Methods
		}{
			{"all", AllMethods},
			{"full", FullOnly},
			{"border", BorderOnly},
		} {
			for _, dense := range []bool{false, true} {
				name := fmt.Sprintf("seed %d %s dense=%v", gseed, m.name, dense)
				cfg := gen.DefaultConfig(gseed)
				cfg.Regions = 40
				w := gen.Generate(cfg)
				checks := 0
				opt := Options{Methods: m.methods, Eps: 0.05}
				if dense {
					opt.universe = allPairs
				}
				opt.engine = func(o Options, st *state, en *enum.Enumerator,
					canceled func() error, maxRounds int, floor float64, stats *Stats) error {
					full, border := o.Methods&FullOnly != 0, o.Methods&BorderOnly != 0
					v := enumView{st: st}
					inc := newEnumerator(full, border, st.pairs)
					inc.Repair(v)
					prev := snapPieces(inc, st, full, border)
					o.onAccept = func(c candKey) {
						checks++
						changes := inc.Repair(v)
						cur := snapPieces(inc, st, full, border)
						if moved := prev.diff(cur); !reflect.DeepEqual(changes, moved) && len(changes)+len(moved) > 0 {
							t.Errorf("%s after %s: Repair reported %v, pieces moved %v", name, c, changes, moved)
						}
						prev = cur
						refreshed := inc.Stats().Refreshed
						got := slices.Clone(inc.Candidates(v))
						if inc.Stats().Refreshed != refreshed {
							t.Errorf("%s after %s: Candidates refreshed pieces after Repair", name, c)
						}
						want := newEnumerator(full, border, st.pairs).Candidates(v)
						if !slices.Equal(got, want) {
							t.Errorf("%s after %s: incremental list (%d) != fresh list (%d)", name, c, len(got), len(want))
						}
						for i := 1; i < len(got) && got[i].Kind != enum.KindI3; i++ {
							if !enum.Less(got[i-1], got[i]) {
								t.Errorf("%s after %s: %s before %s breaks canonical order", name, c, got[i-1], got[i])
								break
							}
						}
					}
					return improveLazy(o, st, en, canceled, maxRounds, floor, stats)
				}
				_, stats, err := Improve(w.Instance, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if checks != stats.Accepted || checks < 2 {
					t.Errorf("%s: %d checks for %d accepted attempts — workload too easy", name, checks, stats.Accepted)
				}
			}
		}
	}
}

// pieceSnap is a copy of every cached enumeration piece value. A refresh
// rewrites a piece's value in place, so the snapshot clones the slices.
type pieceSnap struct {
	win   [2][][][2]int
	dep   [2][][2]enum.Depths
	chain [][]enum.Chain
}

func snapPieces(en *enum.Enumerator, st *state, full, border bool) pieceSnap {
	var p pieceSnap
	for sp := core.SpeciesH; sp <= core.SpeciesM; sp++ {
		for i := 0; i < st.in.NumFrags(sp); i++ {
			fr := core.FragRef{Sp: sp, Idx: i}
			if full {
				p.win[sp] = append(p.win[sp], slices.Clone(en.Windows(fr)))
			}
			if border {
				p.dep[sp] = append(p.dep[sp], en.EndDepths(fr))
				if sp == core.SpeciesH {
					p.chain = append(p.chain, slices.Clone(en.ChainLinks(fr)))
				}
			}
		}
	}
	return p
}

// diff lists the pieces whose values differ between p and q, in Repair's
// reporting order: species, fragment, then piece family.
func (p pieceSnap) diff(q pieceSnap) []enum.Change {
	var out []enum.Change
	for sp := core.SpeciesH; sp <= core.SpeciesM; sp++ {
		n := max(len(p.win[sp]), len(p.dep[sp]))
		for i := 0; i < n; i++ {
			fr := core.FragRef{Sp: sp, Idx: i}
			if i < len(p.win[sp]) && !slices.Equal(p.win[sp][i], q.win[sp][i]) {
				out = append(out, enum.Change{Kind: enum.PieceI1Windows, Frag: fr})
			}
			if i < len(p.dep[sp]) && p.dep[sp][i] != q.dep[sp][i] {
				out = append(out, enum.Change{Kind: enum.PieceI2Depths, Frag: fr})
			}
			if sp == core.SpeciesH && i < len(p.chain) && !slices.Equal(p.chain[i], q.chain[i]) {
				out = append(out, enum.Change{Kind: enum.PieceI3Chains, Frag: fr})
			}
		}
	}
	return out
}

// countCtx is a deterministic cancellation probe: it reports itself
// canceled after the Nth Err() poll, letting tests cancel mid-round without
// timing races.
type countCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func newCountCtx(after int64) *countCtx {
	return &countCtx{Context: context.Background(), after: after}
}

func (c *countCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestImproveCancelMidRound drives the solver with a context that fires
// partway through candidate evaluation: Improve must return ctx.Err()
// promptly with no solution, at every cancellation depth — including
// mid-simulation (the TPA batches poll the context too).
func TestImproveCancelMidRound(t *testing.T) {
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

// TestImproveCancelLeavesPoolUsable cancels one solve mid-round while a
// second solve of the same instance runs concurrently, and checks the clean
// solve is unaffected — its result must be bit-identical to a solo
// reference run. This is the "no corrupted state" half of the cancellation
// contract: aborted simulations unwind wholesale, and what the two solves
// share (the instance's prepared σ and its cached transpose) stays
// consistent.
func TestImproveCancelLeavesPoolUsable(t *testing.T) {
	cfg := gen.DefaultConfig(6)
	cfg.Regions = 40
	w := gen.Generate(cfg)
	ref, refStats, err := Improve(w.Instance, Options{Eps: 0.05, SeedWithFourApprox: true})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx := newCountCtx(25)
		_, _, err := Improve(w.Instance, Options{Eps: 0.05, SeedWithFourApprox: true, Ctx: ctx})
		done <- err
	}()
	sol, stats, err := Improve(w.Instance, Options{Eps: 0.05, SeedWithFourApprox: true})
	if err != nil {
		t.Fatal(err)
	}
	if cerr := <-done; cerr != context.Canceled {
		t.Fatalf("canceled solve returned %v, want context.Canceled", cerr)
	}
	if sol.Score() != ref.Score() || stats != refStats {
		t.Fatalf("solve diverged beside a concurrent cancellation: score %v (%+v) vs solo %v (%+v)",
			sol.Score(), stats, ref.Score(), refStats)
	}
	if !reflect.DeepEqual(sol.Matches, ref.Matches) {
		t.Fatal("solve matches diverged beside a concurrent cancellation")
	}
}

// TestImproveCancelPromptness checks sub-round latency with a real context:
// on a workload whose rounds take much longer than the deadline, the solve
// must come back close to the deadline, not at the next round boundary.
func TestImproveCancelPromptness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := gen.DefaultConfig(8)
	// The positive-σ mask makes each round cheap: 300 regions keep the
	// first round's candidate evaluation (~860 gains) well beyond the
	// deadline.
	cfg.Regions = 300
	w := gen.Generate(cfg)
	solo := time.Now()
	if _, _, err := Improve(w.Instance, Options{Eps: 0.05, SeedWithFourApprox: true}); err != nil {
		t.Fatal(err)
	}
	full := time.Since(solo)
	// Shrink the deadline until a run actually gets interrupted; pooled
	// arenas make warm solves faster than the cold reference, so a fixed
	// fraction of the reference wall can race with completion.
	for deadline := full / 8; deadline >= 50*time.Microsecond; deadline /= 4 {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, _, err := Improve(w.Instance, Options{Eps: 0.05, SeedWithFourApprox: true, Ctx: ctx})
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			continue // solve beat this deadline; try a tighter one
		}
		if err != context.DeadlineExceeded {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
		// Generous bound: well under the full solve, i.e. the cancellation
		// did not wait for a round boundary on this round-dominated
		// workload.
		if elapsed > full/2+50*time.Millisecond {
			t.Fatalf("cancellation took %v of a %v solve — not sub-round", elapsed, full)
		}
		return
	}
	t.Skip("machine solves the workload faster than any deadline; nothing to observe")
}
