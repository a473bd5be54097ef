package fragalign

// Public-API plumbing tests for crash-safe solves: checkpoint sinks and
// resume logs attached with WithCheckpoint/WithResume — per submission on a
// BatchPool, or on a single Solve call — and the memory-budget admission
// gate: the surfaces csrbatch -journal and csrserve -mem-budget are built
// on. The bit-identity semantics themselves are pinned in internal/improve;
// here we prove the root package wires them through unchanged.

import (
	"errors"
	"reflect"
	"testing"
)

// apiSink is a minimal CheckpointSink over the exported op type.
type apiSink struct{ ops []CheckpointOp }

func (s *apiSink) Accept(c CheckpointOp) error {
	s.ops = append(s.ops, c)
	return nil
}

func checkpointWorkload() *Instance {
	// Unseeded improvement on this config accepts a non-trivial op sequence
	// (the 4-approx seed would already be locally optimal).
	cfg := DefaultGenConfig(11)
	cfg.Regions = 60
	return Generate(cfg).Instance
}

func TestBatchPoolCheckpointResume(t *testing.T) {
	in := checkpointWorkload()
	pool := NewBatchPool(CSRImprove, WithShards(2))
	defer pool.Close()

	sink := &apiSink{}
	tk, err := pool.Submit(nil, in, WithCheckpoint(sink))
	if err != nil {
		t.Fatal(err)
	}
	full, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.ops) == 0 {
		t.Fatal("no ops checkpointed; workload too easy to test resume")
	}
	if full.Stats == nil || full.Stats.Accepted != len(sink.ops) {
		t.Fatalf("sink saw %d ops, stats %+v", len(sink.ops), full.Stats)
	}

	// Resume from a prefix: same score, same matches, fresh sink holds
	// exactly the remainder of the full log.
	k := len(sink.ops) / 2
	tail := &apiSink{}
	tk, err = pool.Submit(nil, in, WithCheckpoint(tail), WithResume(sink.ops[:k]))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Resumed != k {
		t.Fatalf("Stats.Resumed = %d, want %d", res.Stats.Resumed, k)
	}
	if res.Score != full.Score {
		t.Fatalf("resumed score %v, want %v", res.Score, full.Score)
	}
	if !reflect.DeepEqual(res.Solution.Matches, full.Solution.Matches) {
		t.Fatal("resumed match set diverged")
	}
	if !reflect.DeepEqual(append(sink.ops[:k:k], tail.ops...), sink.ops) {
		t.Fatalf("resumed checkpoint tail %v does not extend the prefix to %v", tail.ops, sink.ops)
	}

	// Foreign resume ops must fail the instance, not poison the pool.
	bad := sink.ops[0]
	bad.F.Idx = 999
	tk, err = pool.Submit(nil, in, WithResume([]CheckpointOp{bad}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil {
		t.Fatal("foreign resume op solved cleanly")
	}
	// Per-submission options never leak into the pool's configuration: a
	// plain submission afterwards solves healthy and reaches no sink.
	seen := len(sink.ops) + len(tail.ops)
	tk, err = pool.Submit(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk.Wait(); err != nil || res.Stats.Resumed != 0 {
		t.Fatalf("plain submission after option submissions: err %v, stats %+v", err, res.Stats)
	}
	if len(sink.ops)+len(tail.ops) != seen {
		t.Fatal("a plain submission reported to an earlier submission's sink")
	}
}

// TestSolveHonorsCheckpointOptions: the same options work on a plain Solve
// call, checkpointing and resuming a single solve without a pool.
func TestSolveHonorsCheckpointOptions(t *testing.T) {
	in := checkpointWorkload()
	sink := &apiSink{}
	full, err := Solve(in, CSRImprove, WithCheckpoint(sink))
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.ops) == 0 || full.Stats.Accepted != len(sink.ops) {
		t.Fatalf("sink saw %d ops, stats %+v", len(sink.ops), full.Stats)
	}

	k := len(sink.ops) - 1
	tail := &apiSink{}
	res, err := Solve(in, CSRImprove, WithCheckpoint(tail), WithResume(sink.ops[:k]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Resumed != k || res.Score != full.Score ||
		!reflect.DeepEqual(res.Solution.Matches, full.Solution.Matches) {
		t.Fatalf("resumed Solve diverged: score %v vs %v, stats %+v", res.Score, full.Score, res.Stats)
	}
	if !reflect.DeepEqual(append(sink.ops[:k:k], tail.ops...), sink.ops) {
		t.Fatalf("resumed checkpoint tail %v does not extend the prefix to %v", tail.ops, sink.ops)
	}

	bad := sink.ops[0]
	bad.F.Idx = 999
	if _, err := Solve(in, CSRImprove, WithResume([]CheckpointOp{bad})); err == nil {
		t.Fatal("foreign resume op solved cleanly")
	}
}

func TestMemBudgetPublicAPI(t *testing.T) {
	in := checkpointWorkload()
	est := EstimateMem(in)
	if est.Total() <= 0 || est.SigmaBytes <= 0 {
		t.Fatalf("degenerate estimate: %+v", est)
	}

	pool := NewBatchPool(CSRImprove, WithShards(1), WithMemBudget(est.Total()/2))
	defer pool.Close()
	var ob *OverBudgetError
	if _, err := pool.Submit(nil, in); !errors.As(err, &ob) {
		t.Fatalf("Submit err = %v, want *OverBudgetError", err)
	}
	if ob.Budget != est.Total()/2 || ob.Estimate.Total() != est.Total() {
		t.Fatalf("error payload wrong: %+v vs estimate %d", ob, est.Total())
	}

	ok := NewBatchPool(CSRImprove, WithShards(1), WithMemBudget(est.Total()*4))
	defer ok.Close()
	tk, err := ok.Submit(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}
