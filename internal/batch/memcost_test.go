package batch

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/score"
)

func TestEstimateMemShape(t *testing.T) {
	in := testInstances(t, 1, 30)[0]
	est := EstimateMem(in, false)
	if est.SigmaBytes <= 0 || est.ScratchBytes <= 0 || est.StateBytes <= 0 {
		t.Fatalf("estimate has non-positive terms: %+v", est)
	}
	if est.Total() != est.SigmaBytes+est.ScratchBytes+est.StateBytes {
		t.Fatalf("Total() != sum of terms: %+v", est)
	}
	// Float mode charges σ per nonzero cell (two per stored table entry)
	// plus per oriented symbol; integer mode adds the quantized forms,
	// which mirror the float64 ones.
	dim := 2*int64(in.MaxSymbolID()) + 1
	nnz := 2 * int64(in.Sigma.(*score.Table).Len())
	if want := sigmaCellBytes*nnz + sigmaSymbolBytes*dim; est.SigmaBytes != want {
		t.Fatalf("SigmaBytes = %d, want %d·nonzeros + %d·dim = %d",
			est.SigmaBytes, int64(sigmaCellBytes), int64(sigmaSymbolBytes), want)
	}
	if q := EstimateMem(in, true); q.SigmaBytes != 2*est.SigmaBytes ||
		q.ScratchBytes != est.ScratchBytes || q.StateBytes != est.StateBytes {
		t.Fatalf("quantized estimate %+v is not the float one %+v with its σ term doubled", q, est)
	}

	// The model must be monotone in instance size: more regions, more bytes.
	big := testInstances(t, 1, 120)[0]
	if eb := EstimateMem(big, false); eb.Total() <= est.Total() {
		t.Fatalf("4× regions estimated no bigger: %v vs %v", eb.Total(), est.Total())
	}

	// The rendered form names every term, for operators reading a 413.
	s := est.String()
	for _, part := range []string{"σ", "scratch", "state"} {
		if !strings.Contains(s, part) {
			t.Fatalf("estimate string %q missing %q", s, part)
		}
	}
}

// sigmaAllocated measures the bytes allocated preparing in's σ as a solve
// does: Compile, Transposed and both positive-cell indexes, plus the same
// forms of the quantized matrix when quantized. The table is cloned first so
// its compile cache cannot hit. TotalAlloc is process-wide, so a stray
// goroutine allocating during the build inflates a sample but can never
// shrink one: the result is the minimum over several identical builds.
func sigmaAllocated(in *core.Instance, quantized bool) int64 {
	const reps = 5
	least := int64(-1)
	for range reps {
		sc := score.Scorer(in.Sigma.(*score.Table).Clone())
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		c := score.Compile(sc, in.MaxSymbolID())
		c.PosRow(1)
		c.Transposed().PosRow(1)
		if quantized {
			ci := c.Int()
			ci.PosRow(1)
			ci.Transposed().PosRow(1)
		}
		runtime.ReadMemStats(&m1)
		if n := int64(m1.TotalAlloc - m0.TotalAlloc); least < 0 || n < least {
			least = n
		}
	}
	return least
}

// TestEstimateMemSigmaMatchesMeasured pins the σ term against the bytes σ
// preparation really allocates, on a genome-shaped and a batch-shaped
// instance, in both score modes: predicted / measured must stay in
// [0.8, 1.25].
func TestEstimateMemSigmaMatchesMeasured(t *testing.T) {
	cfg := gen.DefaultConfig(1)
	cfg.Regions = 1000
	cfg.MeanContig = 6
	cfg.Inversions = 8
	cfg.InversionLen = 25
	cfg.Translocations = 2
	cfg.Spurious = 100
	cases := []struct {
		name string
		in   *core.Instance
	}{
		{"genome-1000", gen.Generate(cfg).Instance},
		{"batch-60", testInstances(t, 1, 60)[0]},
	}
	for _, tc := range cases {
		for _, quantized := range []bool{false, true} {
			pred := EstimateMem(tc.in, quantized).SigmaBytes
			got := sigmaAllocated(tc.in, quantized)
			ratio := float64(pred) / float64(got)
			t.Logf("%s quantized=%v: predicted %d, measured %d (ratio %.3f)", tc.name, quantized, pred, got, ratio)
			if ratio < 0.8 || ratio > 1.25 {
				t.Errorf("%s quantized=%v: σ predicted %d bytes, measured %d (ratio %.3f, want [0.8, 1.25])",
					tc.name, quantized, pred, got, ratio)
			}
		}
	}
}

func TestMemBudgetGate(t *testing.T) {
	ins := testInstances(t, 2, 30)
	need := EstimateMem(ins[0], false).Total()

	// A budget below the estimate refuses both submission paths with the
	// typed error, before any queue interaction.
	p := New(Options{Shards: 1, Solve: improveSolver, MemBudget: need / 2})
	defer p.Close()
	var ob *OverBudgetError
	if _, err := p.Submit(context.Background(), ins[0]); !errors.As(err, &ob) {
		t.Fatalf("Submit err = %v, want *OverBudgetError", err)
	}
	if ob.Budget != need/2 || ob.Estimate.Total() != need {
		t.Fatalf("error carries wrong numbers: %+v", ob)
	}
	if _, err := p.TrySubmit(context.Background(), ins[1]); !errors.As(err, &ob) {
		t.Fatalf("TrySubmit err = %v, want *OverBudgetError", err)
	}
	if got := p.Counters().OverBudget; got != 2 {
		t.Fatalf("Counters().OverBudget = %d, want 2", got)
	}

	// A generous budget admits and solves normally.
	ok := New(Options{Shards: 1, Solve: improveSolver, MemBudget: 4 * need})
	defer ok.Close()
	tk, err := ok.Submit(context.Background(), ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := ok.Counters().OverBudget; got != 0 {
		t.Fatalf("admitted pool counted %d over-budget", got)
	}

	// A quantizing pool charges the quantized σ forms too: a budget between
	// the float and the quantized estimate admits the instance in float
	// mode and refuses it there.
	qneed := EstimateMem(ins[0], true).Total()
	if qneed <= need {
		t.Fatalf("quantized estimate %v not above the float one %v", qneed, need)
	}
	mid := (need + qneed) / 2
	fp := New(Options{Shards: 1, Solve: improveSolver, MemBudget: mid})
	defer fp.Close()
	if _, err := fp.Submit(context.Background(), ins[0]); err != nil {
		t.Fatalf("float pool refused an instance under budget: %v", err)
	}
	q := New(Options{Shards: 1, Solve: improveSolver, MemBudget: mid, Quantized: true})
	defer q.Close()
	if _, err := q.Submit(context.Background(), ins[0]); !errors.As(err, &ob) {
		t.Fatalf("quantizing pool Submit err = %v, want *OverBudgetError", err)
	}
}

func TestMemBudgetZeroDisables(t *testing.T) {
	in := testInstances(t, 1, 30)[0]
	p := New(Options{Shards: 1, Solve: improveSolver}) // MemBudget unset
	defer p.Close()
	tk, err := p.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestMemBudgetSigmaResidencyWaiver pins the cache-aware half of the model:
// an instance whose σ the pool already holds is charged only scratch+state,
// so a budget too small for a fresh compile still admits the warm alphabet.
func TestMemBudgetSigmaResidencyWaiver(t *testing.T) {
	ins := testInstances(t, 2, 30)
	est := EstimateMem(ins[0], false)
	budget := est.ScratchBytes + est.StateBytes + est.SigmaBytes/2 // fits iff σ waived

	p := New(Options{Shards: 1, Solve: improveSolver, MemBudget: budget})
	defer p.Close()

	// Cold: the σ compile is charged and the instance is refused.
	var ob *OverBudgetError
	if _, err := p.Submit(context.Background(), ins[0]); !errors.As(err, &ob) {
		t.Fatalf("cold submit err = %v, want *OverBudgetError", err)
	}

	// Same instance with its σ pre-compiled: resident, waived, admitted.
	warm := *ins[0]
	warm.Sigma = score.Compile(ins[0].Sigma, ins[0].MaxSymbolID())
	tk, err := p.Submit(context.Background(), &warm)
	if err != nil {
		t.Fatalf("pre-compiled σ refused: %v", err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}

	// And once the pool's identity cache holds the compiled matrix (seeded by
	// a solve under a no-budget pool sharing the same Table pointer), the
	// original Table-scored instance is admitted too.
	seeded := New(Options{Shards: 1, Solve: improveSolver, MemBudget: budget})
	defer seeded.Close()
	seeded.sigs.get(ins[0].Sigma, ins[0].MaxSymbolID())
	if _, err := seeded.Submit(context.Background(), ins[0]); err != nil {
		t.Fatalf("σ-resident submit refused: %v", err)
	}
}

func TestEstimateMemGenomePreset(t *testing.T) {
	// A genome-scale σ (alphabet width grows with the region count) costs
	// bytes per nonzero cell in both score modes — a small term a modest
	// budget admits. Integer mode's quantized forms mirror the float64
	// ones, so the σ term at most doubles instead of growing with dim².
	cfg := gen.DefaultConfig(1)
	cfg.Regions = 5000
	big := gen.Generate(cfg).Instance
	float, quant := EstimateMem(big, false), EstimateMem(big, true)
	if float.SigmaBytes > 4<<20 {
		t.Fatalf("genome-scale float σ estimated at %v bytes, want O(nonzeros) under 4 MiB", float.SigmaBytes)
	}
	if quant.SigmaBytes != 2*float.SigmaBytes {
		t.Fatalf("genome-scale quantized σ estimated at %v bytes, want twice the float σ %v",
			quant.SigmaBytes, float.SigmaBytes)
	}
	dim := 2*int64(big.MaxSymbolID()) + 1
	if quant.SigmaBytes >= 4*dim*dim {
		t.Fatalf("quantized σ (%v bytes) is not below one dense int32 matrix (%v bytes)", quant.SigmaBytes, 4*dim*dim)
	}
}
