package fragalign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

func batchWorkloads(n, regions int) []*Instance {
	ins := make([]*Instance, n)
	for i := range ins {
		cfg := DefaultGenConfig(int64(200 + i))
		cfg.Regions = regions
		ins[i] = Generate(cfg).Instance
		ins[i].Name = fmt.Sprintf("w%d", i)
	}
	return ins
}

// TestSolveBatchMatchesSolve pins the determinism contract of the public
// API: batch results are byte-identical to sequential Solve, at every
// shard count.
func TestSolveBatchMatchesSolve(t *testing.T) {
	ins := batchWorkloads(6, 40)
	want := make([]string, len(ins))
	for i, in := range ins {
		res, err := Solve(in, CSRImprove, WithFourApproxSeed(true))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = FormatResult(in, res)
	}
	for _, shards := range []int{1, 4, 8} {
		results, err := SolveBatch(context.Background(), ins, CSRImprove,
			WithFourApproxSeed(true), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if got := FormatResult(ins[i], res); got != want[i] {
				t.Fatalf("shards=%d instance %d differs from sequential Solve:\n%s\nwant:\n%s",
					shards, i, got, want[i])
			}
		}
	}
}

// TestBatchPoolPerSubmissionOptions: concurrent submitters on one pool,
// half of them overriding the pool's options per submission, each get
// exactly what sequential Solve produces under their own merged options —
// an override never leaks into another submission or the pool default.
func TestBatchPoolPerSubmissionOptions(t *testing.T) {
	ins := batchWorkloads(8, 40)
	pool := NewBatchPool(CSRImprove, WithFourApproxSeed(true), WithShards(3))
	defer pool.Close()
	override := func(i int) []Option {
		if i%2 == 1 {
			return []Option{WithSeededCandidates(true), WithEps(0.1)}
		}
		return nil
	}
	got := make([]*Result, len(ins))
	errs := make(chan error, len(ins))
	for i, in := range ins {
		go func() {
			tk, err := pool.Submit(nil, in, override(i)...)
			if err == nil {
				got[i], err = tk.Wait()
			}
			errs <- err
		}()
	}
	for range ins {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, in := range ins {
		want, err := Solve(in, CSRImprove, append([]Option{WithFourApproxSeed(true)}, override(i)...)...)
		if err != nil {
			t.Fatal(err)
		}
		if FormatResult(in, got[i]) != FormatResult(in, want) || (got[i].Stats.SeedPairs > 0) != (i%2 == 1) {
			t.Errorf("instance %d: pooled result diverges from Solve with the same options", i)
		}
	}
}

// TestSolveBatchPartialFailure: one instance failing (exact solver over its
// fragment cap) must not poison the rest of the batch.
func TestSolveBatchPartialFailure(t *testing.T) {
	small, err := NewBuilder("small").
		FragmentH("h1", "a b").FragmentM("m1", "s t").
		Score("a", "s", 4).Score("b", "t", 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	big := batchWorkloads(1, 60)[0] // far more fragments than exact's cap
	results, err := SolveBatch(context.Background(), []*Instance{small, big}, Exact)
	if err == nil {
		t.Fatal("expected the oversized instance to fail")
	}
	if results[0] == nil || results[0].Score <= 0 {
		t.Fatalf("small instance result lost: %+v", results[0])
	}
	if results[1] != nil {
		t.Fatalf("failed instance produced a result: %+v", results[1])
	}
}

func TestSolveBatchPerInstanceTimeout(t *testing.T) {
	ins := batchWorkloads(3, 50)
	results, err := SolveBatch(context.Background(), ins, CSRImprove,
		WithPerInstanceTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	for i, r := range results {
		if r != nil {
			t.Fatalf("instance %d finished under a 1ns deadline: %+v", i, r)
		}
	}
}

func TestBatchPoolStreaming(t *testing.T) {
	ins := batchWorkloads(5, 30)
	pool := NewBatchPool(FourApprox, WithShards(2), WithQueueDepth(2))
	defer pool.Close()
	tickets := make([]*BatchTicket, len(ins))
	for i, in := range ins {
		tk, err := pool.Submit(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Index() != i {
			t.Fatalf("ticket %d got index %d", i, tk.Index())
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if res.Algorithm != FourApprox || res.Wall <= 0 {
			t.Fatalf("instance %d: bad result %+v", i, res)
		}
	}
}

// TestBatchThroughput asserts the headline batch speedup: >2x over
// sequential solving on a multi-core machine. Wall-clock assertions are
// meaningless on loaded shared runners, so the test only runs when
// explicitly requested (BATCH_SPEEDUP=1, as in the CI bench-trajectory
// job) and on ≥4 cores.
func TestBatchThroughput(t *testing.T) {
	if os.Getenv("BATCH_SPEEDUP") == "" {
		t.Skip("set BATCH_SPEEDUP=1 to run the throughput assertion")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need ≥4 cores, have %d", cores)
	}
	ins := batchWorkloads(4*cores, 60)

	seqStart := time.Now()
	for _, in := range ins {
		if _, err := Solve(in, CSRImprove, WithFourApproxSeed(true)); err != nil {
			t.Fatal(err)
		}
	}
	seq := time.Since(seqStart)

	batchStart := time.Now()
	if _, err := SolveBatch(context.Background(), ins, CSRImprove, WithFourApproxSeed(true)); err != nil {
		t.Fatal(err)
	}
	batched := time.Since(batchStart)

	speedup := float64(seq) / float64(batched)
	t.Logf("sequential %v, batched %v over %d shards: %.2fx", seq, batched, cores, speedup)
	// Full 2x is asserted only with core headroom; on exactly-4-core shared
	// runners (GitHub ubuntu-latest) GC and noisy neighbors eat into the
	// ideal ratio, so the hard floor there is 1.5x — still far beyond what
	// a broken pool (serialized shards, lock contention) would reach.
	want := 2.0
	if cores < 6 {
		want = 1.5
	}
	if speedup < want {
		t.Fatalf("batch speedup %.2fx < %.1fx on %d cores (sequential %v, batched %v)",
			speedup, want, cores, seq, batched)
	}
}
