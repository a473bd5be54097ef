// Command csrbatch streams CSR instances through the sharded batch-solving
// pool: JSONL instances in (stdin or a file), one JSON result record per
// instance out, plus aggregate throughput stats on stderr.
//
// Usage:
//
//	csrgen -count 64 -format jsonl | csrbatch -algo csr-improve -shards 8
//	csrbatch -timeout 30s instances.jsonl > results.jsonl
//	csrbatch -unordered instances.jsonl | consumer
//	csrbatch -results-from results.jsonl | consumer
//
// By default results stream as instances finish but always in submission
// order, so output is byte-identical for any -shards value. With -unordered
// they stream in completion order instead — each record still carries its
// submission index — so downstream pipelines (encoding.ReadJSONLResults)
// start consuming before the slowest instance finishes.
//
// -results-from replays a stored result stream instead of solving: the
// records are re-emitted through the same ordered/unordered sinks (ordered
// resequences by submission index, so a stored -unordered stream replays
// byte-identical to the ordered run that would have produced it), letting
// benchdiff-style tooling and sink consumers run over archived result
// streams without re-solving the instances.
//
// -journal dir/ makes the run crash-safe: every completed instance's record
// is written to dir/results/NNNNNN.json via atomic temp-file + rename and
// then recorded in dir/manifest.jsonl (appended + fsynced), while each
// in-flight improvement solve streams its accepted-op checkpoint to
// dir/ckpt/NNNNNN.ckpt (-ckpt-every sets the fsync cadence). After a crash —
// kill -9 included — re-running with -resume over the same input skips
// manifested instances (their stored records are re-emitted), fast-forwards
// checkpointed in-flight solves through their accepted-op logs, and solves
// the rest from scratch; the final stdout stream is byte-identical to the
// uninterrupted run's (wall_ms excepted — solve time is re-measured).
// -mem-budget refuses instances whose estimated memory footprint exceeds
// the budget instead of dying on OOM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	fragalign "repro"
	"repro/internal/core"
	"repro/internal/encoding"
)

func main() {
	var (
		algo      = flag.String("algo", "csr-improve", "algorithm for every instance")
		shards    = flag.Int("shards", 0, "concurrent solvers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "submission queue bound (0 = 2×shards)")
		eps       = flag.Float64("eps", 0.05, "scaling slack for improvement algorithms")
		seed4     = flag.Bool("seed4", true, "seed improvement with the 4-approximation")
		timeout   = flag.Duration("timeout", 0, "per-instance solve deadline (0 = none)")
		intMode   = flag.Bool("int", false, "solve under the integer-quantized σ (results re-scored under the exact σ)")
		unordered = flag.Bool("unordered", false, "emit results in completion order instead of submission order")
		seeded    = flag.Bool("seeded", false, "minimizer-seeded sparse candidate generation (genome-scale mode; see README)")
		partial   = flag.Bool("partial", false, "graceful degradation: a -timeout firing mid-improvement yields the last accepted solution as a partial record instead of an error")
		replay    = flag.String("results-from", "", "replay a stored result JSONL stream through the sinks instead of solving")

		journalDir = flag.String("journal", "", "journal directory for crash-safe runs: durable per-instance results + completion manifest + in-flight solve checkpoints (empty = no journal)")
		resume     = flag.Bool("resume", false, "resume a crashed -journal run: skip manifested instances, fast-forward checkpointed solves (requires -journal and the same input and flags)")
		ckptEvery  = flag.Int("ckpt-every", 1, "fsync the solve checkpoint every N accepted ops (1 = every op; larger trades crash-replay work for fewer syncs)")
		memBudget  = flag.String("mem-budget", "", "per-instance memory budget, e.g. 512M or 2G; over-budget instances fail their record instead of dying on OOM (empty = no budget)")
	)
	flag.Parse()

	if *replay != "" {
		if flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "csrbatch: -results-from replaces the instance input; drop the positional argument")
			os.Exit(2)
		}
		if err := runReplay(*replay, *unordered); err != nil {
			fmt.Fprintln(os.Stderr, "csrbatch:", err)
			os.Exit(1)
		}
		return
	}

	budget, err := encoding.ParseByteSize(*memBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrbatch:", err)
		os.Exit(2)
	}
	if *resume && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "csrbatch: -resume requires -journal")
		os.Exit(2)
	}
	var jr *journal
	if *journalDir != "" {
		// The fingerprint pins every flag that shapes the accepted-op
		// trajectory; a -resume under different flags must re-solve, not
		// replay another configuration's log.
		fp := fmt.Sprintf("%s|eps=%g|seed4=%t|int=%t|seeded=%t",
			*algo, *eps, *seed4, *intMode, *seeded)
		jr, err = openJournal(*journalDir, *algo, fp, *resume, *ckptEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, "csrbatch:", err)
			os.Exit(1)
		}
		defer jr.close()
	}

	src := io.Reader(os.Stdin)
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: csrbatch [flags] [instances.jsonl]")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "csrbatch:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}

	pool := fragalign.NewBatchPool(fragalign.Algorithm(*algo),
		fragalign.WithShards(*shards),
		fragalign.WithQueueDepth(*queue),
		fragalign.WithEps(*eps),
		fragalign.WithFourApproxSeed(*seed4),
		fragalign.WithPerInstanceTimeout(*timeout),
		fragalign.WithIntScore(*intMode),
		fragalign.WithSeededCandidates(*seeded),
		fragalign.WithPartialResults(*partial),
		fragalign.WithMemBudget(budget),
	)
	defer pool.Close()

	// The reader goroutine parses and submits (blocking on the bounded
	// queue for backpressure); the result records are emitted either in
	// submission order (the main goroutine drains tickets sequentially) or,
	// with -unordered, in completion order (a goroutine per ticket resolves
	// into a shared channel).
	tickets := make(chan pending, pool.Shards()*2)
	var readErr error
	go func() {
		defer close(tickets)
		index := 0
		readErr = encoding.ReadJSONL(src, func(in *core.Instance) error {
			p := pending{index: index, name: in.Name}
			index++
			if jr != nil {
				// Manifested on a previous run: re-emit the stored record
				// instead of re-solving. Otherwise attach the instance's
				// checkpoint (resuming any log a crashed run left behind).
				stored, err := jr.storedRecord(p.index, in.Name)
				if err != nil {
					return err
				}
				if stored != nil {
					p.stored = stored
					tickets <- p
					return nil
				}
			}
			var opts []fragalign.Option
			if jr != nil {
				var err error
				if p.ckpt, p.ckptPath, opts, err = jr.attachCheckpoint(p.index, in.Name); err != nil {
					return err
				}
			}
			t, err := pool.Submit(context.Background(), in, opts...)
			var ob *fragalign.OverBudgetError
			if errors.Is(err, context.DeadlineExceeded) || errors.As(err, &ob) {
				// A deadline that expired while waiting for queue space, or
				// an instance the memory budget refuses: record the failure,
				// keep the stream going.
				if p.ckpt != nil {
					p.ckpt.Close()
				}
				p.ckpt = nil
				p.err = err
				tickets <- p
				return nil
			}
			if err != nil {
				if p.ckpt != nil {
					p.ckpt.Close()
				}
				return err
			}
			p.ticket = t
			tickets <- p
			return nil
		})
	}()

	resolve := func(p pending) encoding.ResultRecord {
		if p.stored != nil {
			return *p.stored
		}
		rec := encoding.ResultRecord{Index: p.index, Name: p.name, Algorithm: *algo}
		var res *fragalign.Result
		err := p.err
		if err == nil {
			res, err = p.ticket.Wait()
		}
		if err != nil {
			rec.Error = err.Error()
		} else {
			rec.Score = res.Score
			rec.WallMS = float64(res.Wall.Microseconds()) / 1000
			if res.Solution != nil {
				rec.Matches = len(res.Solution.Matches)
			}
			if res.Stats != nil {
				rec.Rounds = res.Stats.Rounds
				rec.Partial = res.Stats.Partial
			}
		}
		if jr != nil {
			jr.complete(p, &rec)
		}
		return rec
	}

	// records carries resolved results to the single writer below. In
	// ordered mode it is fed sequentially; in unordered mode a bounded set
	// of resolver goroutines sends on completion — bounded so a consumer
	// slower than the solvers still exerts backpressure through Submit
	// instead of accumulating a goroutine per solved-but-unwritten result.
	records := make(chan encoding.ResultRecord, pool.Shards()*2)
	go func() {
		defer close(records)
		if !*unordered {
			for p := range tickets {
				records <- resolve(p)
			}
			return
		}
		sem := make(chan struct{}, pool.Shards()*2)
		var wg sync.WaitGroup
		for p := range tickets {
			p := p
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				records <- resolve(p)
				<-sem
			}()
		}
		wg.Wait()
	}()

	start := time.Now()
	var solved, failed int
	var wallTotal time.Duration
	for rec := range records {
		if rec.Error != "" {
			failed++
		} else {
			solved++
			wallTotal += time.Duration(rec.WallMS * float64(time.Millisecond))
		}
		if err := encoding.WriteJSONLResult(os.Stdout, &rec); err != nil {
			fmt.Fprintln(os.Stderr, "csrbatch:", err)
			os.Exit(1)
		}
	}
	elapsed := time.Since(start)

	if readErr != nil {
		fmt.Fprintln(os.Stderr, "csrbatch:", readErr)
		os.Exit(1)
	}
	total := solved + failed
	rate := 0.0
	if elapsed > 0 {
		rate = float64(total) / elapsed.Seconds()
	}
	mean := time.Duration(0)
	if solved > 0 {
		mean = wallTotal / time.Duration(solved)
	}
	fmt.Fprintf(os.Stderr,
		"csrbatch: %d instances (%d failed) in %v over %d shards — %.1f inst/s, mean solve %v\n",
		total, failed, elapsed.Round(time.Millisecond), pool.Shards(), rate, mean.Round(time.Microsecond))
	if failed > 0 {
		os.Exit(1)
	}
}

// runReplay re-emits a stored result stream ("-" for stdin) through the
// ordered or unordered sink without solving anything. Unordered preserves
// the stored stream order; ordered resequences by submission index,
// buffering out-of-order records until their predecessors arrive and
// flushing any residue (gaps in an incomplete archive) in index order at
// EOF. The stderr summary reports the stored per-instance wall times, not
// replay time, so pipelines can tell archived cost from replay cost.
func runReplay(path string, unordered bool) error {
	src := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	start := time.Now()
	var solved, failed int
	var wallTotal time.Duration
	emit := func(rec encoding.ResultRecord) error {
		if rec.Error != "" {
			failed++
		} else {
			solved++
			wallTotal += time.Duration(rec.WallMS * float64(time.Millisecond))
		}
		return encoding.WriteJSONLResult(os.Stdout, &rec)
	}
	var err error
	if unordered {
		err = encoding.ReadJSONLResults(src, emit)
	} else {
		pending := map[int]encoding.ResultRecord{}
		next := 0
		err = encoding.ReadJSONLResults(src, func(rec encoding.ResultRecord) error {
			pending[rec.Index] = rec
			for {
				r, ok := pending[next]
				if !ok {
					return nil
				}
				if e := emit(r); e != nil {
					return e
				}
				delete(pending, next)
				next++
			}
		})
		if err == nil && len(pending) > 0 {
			// Incomplete archive: flush the residue in index order.
			rest := make([]int, 0, len(pending))
			for idx := range pending {
				rest = append(rest, idx)
			}
			sort.Ints(rest)
			for _, idx := range rest {
				if e := emit(pending[idx]); e != nil {
					return e
				}
			}
		}
	}
	if err != nil {
		return err
	}
	total := solved + failed
	mean := time.Duration(0)
	if solved > 0 {
		mean = wallTotal / time.Duration(solved)
	}
	fmt.Fprintf(os.Stderr,
		"csrbatch: replayed %d stored records (%d failed) in %v — stored mean solve %v\n",
		total, failed, time.Since(start).Round(time.Millisecond), mean.Round(time.Microsecond))
	if failed > 0 {
		os.Exit(1)
	}
	return nil
}
