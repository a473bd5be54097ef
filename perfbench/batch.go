package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	fragalign "repro"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/onecsr"
	"repro/internal/score"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps    = 7
	batchShards  = 2
	batchCallers = 2 // one closed-loop caller per shard
	// batchLimit is the per-instance latency limit of batch-improve goodput.
	batchLimit = time.Second
	// memPass is how many instances one resident-peak pass solves, and
	// memPasses how many passes peak_rss_mb is the median of: a pass's
	// mark moves by a few MB with where the collector's cycles fall and
	// with the instances it holds, so the passes go twice over every
	// instance in turn.
	memPass   = 15
	memPasses = 2 * batchInstances / memPass
)

// join concatenates the items' JSONL lines into one input stream.
func join(items []item) []byte {
	var b bytes.Buffer
	for _, it := range items {
		b.Write(it.line)
	}
	return b.Bytes()
}

// decodeAll reads a JSONL stream with one σ interner, as csrbatch does.
func decodeAll(data []byte) ([]*core.Instance, error) {
	var ins []*core.Instance
	err := encoding.ReadJSONLWith(bytes.NewReader(data), encoding.NewSigmaInterner(), func(in *core.Instance) error {
		ins = append(ins, in)
		return nil
	})
	return ins, err
}

// startBatch is batch-improve's set-up: decode the input, build the pool,
// and solve one warm-up instance per shard (compiling the shared σ).
func startBatch(data []byte, m mode) ([]*core.Instance, *fragalign.BatchPool, error) {
	ins, err := decodeAll(data)
	if err != nil {
		return nil, nil, err
	}
	pool := fragalign.NewBatchPool(fragalign.CSRImprove, append(m.options(), fragalign.WithShards(batchShards))...)
	var ts []*fragalign.BatchTicket
	for s := 0; s < batchShards; s++ {
		t, err := pool.Submit(context.Background(), ins[s])
		if err != nil {
			pool.Close()
			return nil, nil, err
		}
		ts = append(ts, t)
	}
	for _, t := range ts {
		if _, err := t.Wait(); err != nil {
			pool.Close()
			return nil, nil, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return ins, pool, nil
}

// ticketResult is one closed-loop submission.
type ticketResult struct {
	idx       int
	submit    time.Time
	lat, wall time.Duration
	res       *fragalign.Result
	err       error
}

// closedLoop runs batchCallers callers that each Submit the next instance
// (cycling through ins) and Wait for it, until stop says so.
func closedLoop(pool *fragalign.BatchPool, ins []*core.Instance, stop func(done int) bool) []ticketResult {
	var next, done atomic.Int64
	per := make([][]ticketResult, batchCallers)
	var wg sync.WaitGroup
	for c := 0; c < batchCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop(int(done.Load())) {
				i := int(next.Add(1)-1) % len(ins)
				tr := ticketResult{idx: i, submit: time.Now()}
				t, err := pool.Submit(context.Background(), ins[i])
				if err == nil {
					tr.res, err = t.Wait()
				}
				tr.lat = time.Since(tr.submit)
				tr.err = err
				if tr.res != nil {
					tr.wall = tr.res.Wall
				}
				per[c] = append(per[c], tr)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	var out []ticketResult
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

func runBatch(r *run) error {
	items, err := genBatch(r.seed)
	if err != nil {
		return err
	}
	data := join(items)
	m := r.mode()
	if r.trace {
		return traceBatch(r, items, data)
	}
	var setups []float64
	var ins []*core.Instance
	var pool *fragalign.BatchPool
	for k := 0; k < setupReps; k++ {
		if pool != nil {
			pool.Close()
		}
		t0 := time.Now()
		if ins, pool, err = startBatch(data, m); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer pool.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res := closedLoop(pool, ins, func(done int) bool { return r.timeUp(start, done) })
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	var lats []float64
	var ok, good int
	var score, truth float64
	for _, t := range res {
		if t.err != nil {
			r.check(false, "instance %d: %v", t.idx, t.err)
			continue
		}
		ok++
		lats = append(lats, ms(t.lat))
		if t.lat <= batchLimit {
			good++
		}
		score += t.res.Score
		truth += items[t.idx].truth
	}
	r.Attempted, r.Failed = len(res), len(res)-ok
	checkResults(r, ins, res)
	// The resident peak of a pass of the closed loop over memPass
	// instances, on the warm pool the timed loop leaves behind.
	peak, largest, err := residentPeak(memPasses, func(k int) error {
		from := k * memPass % len(ins)
		for _, t := range closedLoop(pool, ins[from:from+memPass], func(done int) bool { return done >= memPass }) {
			if t.err != nil {
				return fmt.Errorf("instance %d: %w", t.idx, t.err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: resident peak per pass: median %.1f MB, largest %.1f MB\n", peak, largest)
	p50, _ := quantile(lats, 0.5)
	p90, ok90 := quantile(lats, 0.9)
	r.check(ok90, "p90 latency needs %d samples, have %d", minSamples, len(lats))
	r.set("instances_per_s", float64(ok)/elapsed.Seconds())
	r.set("latency_p50_ms", p50)
	r.set("latency_p90_ms", p90)
	r.set("goodput_rps", float64(good)/elapsed.Seconds())
	r.set("ok_share", float64(ok)/float64(max(len(res), 1)))
	r.set("peak_rss_mb", peak)
	r.set("alloc_mb_per_instance", mb(m1.TotalAlloc-m0.TotalAlloc)/float64(max(ok, 1)))
	r.set("score_vs_truth", score/truth)
	r.set("setup_s", median(setups))
	return nil
}

// checkResults verifies every result: its conjecture builds, its score is
// at least the 4-approximation's on the same instance, and every repeat of
// an instance scores the same.
func checkResults(r *run, ins []*core.Instance, res []ticketResult) {
	first := map[int]float64{}
	for _, t := range res {
		if t.err != nil {
			continue
		}
		if s, seen := first[t.idx]; seen {
			r.check(t.res.Score == s, "instance %d: repeat scored %v, first %v", t.idx, t.res.Score, s)
			continue
		}
		first[t.idx] = t.res.Score
		checkOne(r, ins[t.idx], t.res)
	}
}

// checkOne verifies one result against its instance.
func checkOne(r *run, in *core.Instance, res *fragalign.Result) {
	_, err := res.Solution.BuildConjecture(in)
	r.check(err == nil, "%s: conjecture: %v", in.Name, err)
	r.check(res.Score == res.Solution.Score(), "%s: result score %v, solution %v", in.Name, res.Score, res.Solution.Score())
	base, err := onecsr.FourApprox(in)
	if err != nil {
		r.check(false, "%s: 4-approximation: %v", in.Name, err)
		return
	}
	// Improvement starts from the 4-approximation and only accepts gains,
	// so the score may differ from it only by summation-order rounding
	// (int32 mode re-scores the same matches in another order).
	r.check(res.Score >= base.Score()*(1-1e-12), "%s: score %v below the 4-approximation's %v", in.Name, res.Score, base.Score())
}

// traceBatch is batch-improve's traced run: the layer pipeline and align
// probe on the warm shared σ, the serve mix against a real csrserve, the
// batch pool's ticket timings, and the encoding probe.
func traceBatch(r *run, items []item, data []byte) error {
	tr := newTracer()
	m := r.mode()
	ins, err := decodeAll(data)
	if err != nil {
		return err
	}
	// The shared σ is warm in steady state; compile it before timing.
	score.Compile(ins[0].Sigma, ins[0].MaxSymbolID())
	tot := &layerTotals{}
	budget := func(share float64) time.Duration { return time.Duration(share * r.seconds * float64(time.Second)) }
	next := func(i int) (*core.Instance, error) { return ins[i%len(ins)], nil }
	if err := tracedPipeline(r, tr, next, m, budget(0.35), tot); err != nil {
		return err
	}
	if err := serveMix(r, tr, budget(0.3)); err != nil {
		return err
	}
	if err := batchLayer(r, tr, ins, m, budget(0.2)); err != nil {
		return err
	}
	encodingProbe(r, data, tot.results)
	r.setLayers(tot, tr)
	return r.finishTrace(tr, tot)
}

// batchLayer runs the closed loop on a fresh pool and reports the batch
// layer: queue wait per ticket (ticket latency minus Result.Wall), shard
// busy share and σ-cache traffic.
func batchLayer(r *run, tr *tracer, ins []*core.Instance, m mode, budget time.Duration) error {
	pool := fragalign.NewBatchPool(fragalign.CSRImprove, append(m.options(), fragalign.WithShards(batchShards))...)
	defer pool.Close()
	start := time.Now()
	res := closedLoop(pool, ins, func(done int) bool {
		el := time.Since(start)
		return (el >= budget && done >= minSamples) || el.Seconds() >= hardCapSeconds
	})
	elapsed := time.Since(start)
	var waits []float64
	for i, t := range res {
		if t.err != nil {
			r.check(false, "batch layer instance %d: %v", t.idx, t.err)
			continue
		}
		waits = append(waits, ms(t.lat-t.wall))
		root := tr.add("batch.ticket", 0, 1_000_000+i, t.submit, t.submit.Add(t.lat))
		tr.add("batch.solve", root, 1_000_000+i, t.submit.Add(t.lat-t.wall), t.submit.Add(t.lat))
	}
	r.setPool(waits, pool.Counters(), elapsed)
	return nil
}
