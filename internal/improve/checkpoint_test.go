package improve

// Crash-recovery contract tests: a checkpoint is the accepted-op log, and a
// resumed solve must be bit-identical to the uninterrupted one. The chaos
// test at the bottom closes the loop through the real file format
// (internal/encoding) with an injected torn write standing in for the crash.

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/improve/enum"
)

// recordingSink captures accepted ops and can fail after a set count.
type recordingSink struct {
	ops     []enum.Cand
	failAt  int // fail the failAt-th Accept (1-based); 0 = never
	failErr error
}

func (s *recordingSink) Accept(c enum.Cand) error {
	if s.failAt > 0 && len(s.ops)+1 >= s.failAt {
		return s.failErr
	}
	s.ops = append(s.ops, c)
	return nil
}

// TestCheckpointResumeBitIdentity is the contract test named in the Options
// docs: for every prefix length k of a solve's accepted-op log, resuming
// from that prefix reproduces the uninterrupted run exactly — same total
// accepted sequence, same round count, same match set, same score. The
// oracle case resumes into the full re-evaluation oracle, proving Resume
// runs ahead of whichever round loop follows it.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		{"lazy", Options{Eps: 0.05}},
		{"oracle", Options{Eps: 0.05, engine: fullReeval}},
		{"int", Options{Eps: 0.05, IntScore: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := gen.DefaultConfig(11)
			cfg.Regions = 60
			in := gen.Generate(cfg).Instance

			sink := &recordingSink{}
			opt := mode.opt
			opt.Checkpoint = sink
			full, fullStats, err := Improve(in, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(sink.ops) == 0 {
				t.Fatal("solve accepted nothing; the test instance is too easy")
			}
			if len(sink.ops) != fullStats.Accepted {
				t.Fatalf("sink saw %d ops, stats.Accepted = %d", len(sink.ops), fullStats.Accepted)
			}

			cuts := []int{1, len(sink.ops) / 2, len(sink.ops) - 1, len(sink.ops)}
			for _, k := range cuts {
				if k < 1 {
					continue
				}
				var accepts []candKey
				tail := &recordingSink{}
				ropt := mode.opt
				ropt.Resume = sink.ops[:k]
				ropt.Checkpoint = tail
				ropt.onAccept = func(c candKey) { accepts = append(accepts, c) }
				sol, stats, err := Improve(in, ropt)
				if err != nil {
					t.Fatalf("cut %d: %v", k, err)
				}
				if stats.Resumed != k {
					t.Fatalf("cut %d: Resumed = %d", k, stats.Resumed)
				}
				// onAccept sees replayed + fresh ops: the full sequence.
				if !reflect.DeepEqual(accepts, sink.ops) {
					t.Fatalf("cut %d: resumed accepted sequence diverged\n got %v\nwant %v", k, accepts, sink.ops)
				}
				// The sink sees only the fresh ops — replays are already in
				// the caller's durable log.
				if !reflect.DeepEqual(append(sink.ops[:k:k], tail.ops...), sink.ops) {
					t.Fatalf("cut %d: checkpoint tail %v does not extend prefix to %v", k, tail.ops, sink.ops)
				}
				if stats.Rounds != fullStats.Rounds {
					t.Fatalf("cut %d: Rounds = %d, want %d", k, stats.Rounds, fullStats.Rounds)
				}
				if sol.Score() != full.Score() {
					t.Fatalf("cut %d: score %v, want %v", k, sol.Score(), full.Score())
				}
				if !reflect.DeepEqual(sol.Matches, full.Matches) {
					t.Fatalf("cut %d: match sets differ", k)
				}
			}
		})
	}
}

// TestCheckpointSinkErrorAbortsSolve pins the durability contract: the solve
// must never run ahead of its log, so a sink failure is a solve failure.
func TestCheckpointSinkErrorAbortsSolve(t *testing.T) {
	cfg := gen.DefaultConfig(11)
	cfg.Regions = 60
	in := gen.Generate(cfg).Instance

	bad := errors.New("disk gone")
	sink := &recordingSink{failAt: 2, failErr: bad}
	sol, _, err := Improve(in, Options{Eps: 0.05, Checkpoint: sink})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want the sink's", err)
	}
	if sol != nil {
		t.Fatal("got a solution alongside the sink error")
	}
}

// TestResumeRejectsForeignOps: a log that does not fit the instance must
// fail typed, not corrupt state or panic.
func TestResumeRejectsForeignOps(t *testing.T) {
	cfg := gen.DefaultConfig(7)
	cfg.Regions = 30
	in := gen.Generate(cfg).Instance

	for _, bad := range []enum.Cand{
		{Kind: 0, F: core.FragRef{Sp: core.SpeciesH}, G: core.FragRef{Sp: core.SpeciesM}},
		{Kind: enum.KindI1, F: core.FragRef{Sp: core.SpeciesH, Idx: 999}, G: core.FragRef{Sp: core.SpeciesM}},
		{Kind: enum.KindI1, F: core.FragRef{Sp: core.SpeciesH, Idx: -1}, G: core.FragRef{Sp: core.SpeciesM}},
	} {
		_, _, err := Improve(in, Options{Eps: 0.05, Resume: []enum.Cand{bad}})
		if err == nil {
			t.Fatalf("resume with foreign op %+v succeeded", bad)
		}
	}
}

// TestChaosCheckpointTorn is the end-to-end crash drill over the real file
// format: a solve checkpointing to disk dies on an injected torn write (the
// crash-equivalent partial flush), the torn log is reloaded — losing exactly
// the torn record — and the resumed solve must still converge bit-identical
// to the uninterrupted oracle.
func TestChaosCheckpointTorn(t *testing.T) {
	cfg := gen.DefaultConfig(11)
	cfg.Regions = 60
	in := gen.Generate(cfg).Instance

	oracle := &recordingSink{}
	full, _, err := Improve(in, Options{Eps: 0.05, Checkpoint: oracle})
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.ops) < 3 {
		t.Fatalf("only %d accepts; instance too easy for a mid-solve tear", len(oracle.ops))
	}

	for _, tearAt := range []int{1, 2, len(oracle.ops)} {
		t.Run(fmt.Sprintf("tear-%d", tearAt), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "solve.ckpt")
			hdr := encoding.CheckpointHeader{Index: 3, Name: in.Name, Fingerprint: "test"}
			w, err := encoding.CreateCheckpoint(path, hdr)
			if err != nil {
				t.Fatal(err)
			}
			w.SetInjector(faultinject.New(1, faultinject.Rule{
				Point: faultinject.CheckpointTorn, Nth: tearAt}))
			_, _, err = Improve(in, Options{Eps: 0.05, Checkpoint: w})
			if !errors.Is(err, encoding.ErrCheckpointTorn) {
				t.Fatalf("err = %v, want ErrCheckpointTorn", err)
			}
			w.Close()

			ck, err := encoding.LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if !ck.Torn {
				t.Fatal("torn checkpoint not flagged Torn")
			}
			if ck.Header.Index != 3 || ck.Header.Fingerprint != "test" {
				t.Fatalf("header mangled: %+v", ck.Header)
			}
			want := oracle.ops[:tearAt-1] // the torn record itself is lost
			if len(ck.Ops) != len(want) || (len(want) > 0 && !reflect.DeepEqual(ck.Ops, want)) {
				t.Fatalf("recovered ops %v, want %v", ck.Ops, want)
			}

			// Resume: truncate the torn tail, fast-forward, finish the solve.
			rw, err := encoding.ResumeCheckpoint(path, ck)
			if err != nil {
				t.Fatal(err)
			}
			sol, stats, err := Improve(in, Options{
				Eps: 0.05, Resume: ck.Ops, Checkpoint: rw})
			if err != nil {
				t.Fatal(err)
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
			if sol.Score() != full.Score() || !reflect.DeepEqual(sol.Matches, full.Matches) {
				t.Fatalf("resumed solve diverged: score %v want %v", sol.Score(), full.Score())
			}
			if stats.Resumed != len(ck.Ops) {
				t.Fatalf("Resumed = %d, want %d", stats.Resumed, len(ck.Ops))
			}

			// The healed file now holds the complete log.
			final, err := encoding.LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if final.Torn {
				t.Fatal("healed checkpoint still flagged Torn")
			}
			if !reflect.DeepEqual(final.Ops, oracle.ops) {
				t.Fatalf("healed log %v, want the oracle's %v", final.Ops, oracle.ops)
			}
		})
	}
}
