package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	fragalign "repro"
	"repro/internal/core"
	"repro/internal/encoding"
)

// genomeLimit is the per-solve latency limit of genome-seeded goodput.
const genomeLimit = 2 * time.Second

// genomeMemSolves is how many isolated solves peak_rss_mb is the median of.
const genomeMemSolves = 5

// decodeOne decodes a single instance line with a fresh interner, so its σ
// table is new and the solve that follows compiles it.
func decodeOne(line []byte) (*core.Instance, error) {
	return nthInstance(line, encoding.NewSigmaInterner(), 0)
}

func runGenome(r *run) error {
	items, err := genGenome(r.seed, genomeInstances)
	if err != nil {
		return err
	}
	if r.trace {
		return traceGenome(r, items)
	}
	m := r.mode()
	// Set-up is decoding the run's input stream; σ is built inside each
	// solve, as every user of this path pays it.
	data := join(items)
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		if _, err := decodeAll(data); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var lats []float64
	var solving time.Duration
	var alloc uint64
	var good, attempted int
	var score, truth float64
	scores := map[int]float64{} // first score of each item
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; !r.timeUp(start, len(lats)); i++ {
		it := items[i%len(items)]
		in, err := decodeOne(it.line)
		if err != nil {
			return err
		}
		attempted++
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := fragalign.Solve(in, fragalign.CSRImprove, m.options()...)
		lat := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			r.check(false, "%s: %v", in.Name, err)
			continue
		}
		alloc += m1.TotalAlloc - m0.TotalAlloc
		solving += lat
		lats = append(lats, ms(lat))
		if lat <= genomeLimit {
			good++
		}
		score += res.Score
		truth += it.truth
		checkOne(r, in, res)
		if first, seen := scores[i%len(items)]; seen {
			r.check(res.Score == first, "%s: score %v on a repeat, %v before", in.Name, res.Score, first)
		} else {
			scores[i%len(items)] = res.Score
		}
		// Free this instance's σ before the next one is built, so the
		// heap holds one genome's matrices at a time.
		runtime.GC()
	}
	ok := len(lats)
	r.Attempted, r.Failed = attempted, attempted-ok
	p50, _ := quantile(lats, 0.5)
	p90, ok90 := quantile(lats, 0.9)
	r.check(ok90, "p90 latency needs %d samples, have %d", minSamples, len(lats))
	// Throughput is over time spent solving: decoding, checks and the GC
	// between solves are the benchmark's, not the solver's.
	r.set("instances_per_s", float64(ok)/solving.Seconds())
	r.set("latency_p50_ms", p50)
	r.set("latency_p90_ms", p90)
	r.set("goodput_rps", float64(good)/solving.Seconds())
	r.set("ok_share", float64(ok)/float64(max(attempted, 1)))
	// The resident peak of one solve, from the heap the loop leaves behind
	// trimmed back to the process's live state. The loop has checked these
	// instances; a repeat must score the same, and checkOne stays out of
	// the window because the 4-approximation builds σ again.
	peak, largest, err := residentPeak(genomeMemSolves, func(k int) error {
		in, err := decodeOne(items[k].line)
		if err != nil {
			return err
		}
		res, err := fragalign.Solve(in, fragalign.CSRImprove, m.options()...)
		if err != nil {
			return err
		}
		first, seen := scores[k]
		r.check(seen && res.Score == first, "%s: score %v in the resident-peak solve, %v in the loop", in.Name, res.Score, first)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: resident peak per solve: median %.1f MB, largest %.1f MB\n", peak, largest)
	r.set("peak_rss_mb", peak)
	r.set("alloc_mb_per_instance", mb(alloc)/float64(max(ok, 1)))
	r.set("score_vs_truth", score/truth)
	r.set("setup_s", median(setups))
	return nil
}

// traceGenome is genome-seeded's traced run: the layer pipeline on fresh
// per-instance σ, the align probe, three instances served through the
// in-process serve probe (the serve and batch layer figures), and the
// encoding probe.
func traceGenome(r *run, items []item) error {
	tr := newTracer()
	m := r.mode()
	tot := &layerTotals{}
	budget := time.Duration(0.75 * r.seconds * float64(time.Second))
	next := func(i int) (*core.Instance, error) { return decodeOne(items[i%len(items)].line) }
	if err := tracedPipeline(r, tr, next, m, budget, tot); err != nil {
		return err
	}
	lines := make([][]byte, len(items))
	for i, it := range items {
		lines[i] = it.line
	}
	if err := serveProbe(r, tr, lines, m, 3); err != nil {
		return err
	}
	encodingProbe(r, join(items), tot.results)
	r.setLayers(tot, tr)
	return r.finishTrace(tr, tot)
}
