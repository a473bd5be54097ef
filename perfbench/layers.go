package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	fragalign "repro"
	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/improve"
	"repro/internal/onecsr"
	"repro/internal/score"
	"repro/internal/seed"
	"repro/internal/symbol"
)

// mode is how solves run. Every solve starts improvement from the
// 4-approximation (fragalign.WithFourApproxSeed, csrserve's default),
// which is what makes "improve score ≥ 4-approximation score" a check
// that must hold.
type mode struct {
	intScore bool // int32-quantized σ kernels (the serve mix's daemon)
	seeded   bool // minimizer-seeded candidate pairs
}

func (m mode) options() []fragalign.Option {
	return []fragalign.Option{
		fragalign.WithFourApproxSeed(true),
		fragalign.WithIntScore(m.intScore),
		fragalign.WithSeededCandidates(m.seeded),
	}
}

// layerTotals accumulates the traced pipeline's per-layer figures.
type layerTotals struct {
	n                                     int
	prepare, fourApprox, seedT, solve     time.Duration
	conjecture                            time.Duration
	prepareAlloc, solveAlloc              uint64
	pairs, anchors, pairSpace             int
	evaluated, popped, resimulated        int
	skipped, enumRefreshed, enumReused    int
	accepted                              int
	tracedWall, untracedWall              time.Duration
	results                               []encoding.ResultRecord
	probeCells                            int
	scoreNS, scoreIntNS, placeNS, probeMB float64
}

// pipeline calls the layers one by one, in solve order, on one instance
// solved over float64 σ: score (σ compile plus its lazy Transposed and
// PosRow forms) → onecsr → seed → improve → core. With a nil tracer it
// records nothing and only the wall time counts (the untraced half of the
// overhead A/B).
func pipeline(tr *tracer, op int, in *core.Instance, m mode, tot *layerTotals) error {
	traced := tr != nil
	var before, after runtime.MemStats
	readMem := func(ms *runtime.MemStats) {
		if traced {
			runtime.ReadMemStats(ms)
		}
	}
	wall := time.Now()
	root := tr.begin("instance", 0, op)

	// Heap readings stop the world, so they stay outside the spans.
	readMem(&before)
	sp := tr.begin("score.prepare", root, op)
	t0 := time.Now()
	c := score.Compile(in.Sigma, in.MaxSymbolID())
	c.Transposed()
	c.PosRow(symbol.Symbol(1))
	tPrepare := time.Since(t0)
	tr.end(sp)
	readMem(&after)
	if traced {
		tot.prepareAlloc += after.TotalAlloc - before.TotalAlloc
	}

	// The solver runs onecsr and seed on an instance whose σ is the
	// prepared matrix; so do these spans.
	pin := *in
	pin.Sigma = c

	sp = tr.begin("onecsr.fourapprox", root, op)
	t0 = time.Now()
	base, err := onecsr.FourApprox(&pin)
	tFour := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("onecsr.FourApprox: %w", err)
	}

	sp = tr.begin("seed.candidates", root, op)
	t0 = time.Now()
	sres := seed.Candidates(&pin, seed.DefaultParams())
	tSeed := time.Since(t0)
	tr.end(sp)

	readMem(&before)
	sp = tr.begin("improve.solve", root, op)
	t0 = time.Now()
	sol, st, err := improve.Improve(in, improve.Options{
		Methods:            improve.AllMethods,
		Eps:                0.05,
		SeedWithFourApprox: true,
		Seeded:             m.seeded,
	})
	tSolve := time.Since(t0)
	tr.end(sp)
	readMem(&after)
	if err != nil {
		return fmt.Errorf("improve.Improve: %w", err)
	}
	if traced {
		tot.solveAlloc += after.TotalAlloc - before.TotalAlloc
	}

	sp = tr.begin("core.conjecture", root, op)
	t0 = time.Now()
	_, err = sol.BuildConjecture(in)
	tConj := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("BuildConjecture: %w", err)
	}
	tr.end(root)
	if !traced {
		tot.untracedWall += time.Since(wall)
		return nil
	}
	tot.tracedWall += time.Since(wall)
	if sol.Score() < base.Score()*(1-1e-12) {
		return fmt.Errorf("improve score %v below the 4-approximation's %v", sol.Score(), base.Score())
	}
	tot.n++
	tot.prepare += tPrepare
	tot.fourApprox += tFour
	tot.seedT += tSeed
	tot.solve += tSolve
	tot.conjecture += tConj
	tot.pairs += sres.Stats.Pairs
	tot.anchors += sres.Stats.Anchors
	tot.pairSpace += in.NumFrags(core.SpeciesH) * in.NumFrags(core.SpeciesM)
	tot.evaluated += st.Evaluated
	tot.popped += st.Popped
	tot.resimulated += st.Resimulated
	tot.skipped += st.Skipped
	tot.enumRefreshed += st.EnumRefreshed
	tot.enumReused += st.EnumReused
	tot.accepted += st.Accepted
	tot.results = append(tot.results, encoding.ResultRecord{
		Index: op, Name: in.Name, Algorithm: string(fragalign.CSRImprove),
		Score: sol.Score(), Matches: len(sol.Matches), Rounds: st.Rounds, WallMS: ms(tSolve),
	})
	return nil
}

// tracedPipeline runs the pipeline over instances produced by next until
// budget has passed (and at least minTraced instances ran), alternating a
// traced and an untraced pass on each instance so that their difference is
// the tracing overhead. After a traced pass it runs the align kernel probe
// on the instance while its σ is compiled, until the probe's cell budget
// is spent.
func tracedPipeline(r *run, tr *tracer, next func(i int) (*core.Instance, error), m mode, budget time.Duration, tot *layerTotals) error {
	const minTraced = 3
	start := time.Now()
	for i := 0; tot.n < minTraced || time.Since(start) < budget; i++ {
		if time.Since(start).Seconds() > hardCapSeconds {
			break
		}
		// Alternate which pass goes first so warm-cache effects cancel.
		passes := []*tracer{tr, nil}
		if i%2 == 1 {
			passes = []*tracer{nil, tr}
		}
		for _, p := range passes {
			// next hands each pass its own copy, so a workload whose σ
			// is fresh per instance pays the compile in both passes.
			in, err := next(i)
			if err != nil {
				return err
			}
			if err := pipeline(p, i, in, m, tot); err != nil {
				r.check(false, "pipeline instance %d: %v", i, err)
				return nil
			}
			if p != nil && tot.probeCells < probeCellBudget {
				alignProbe(in, tot)
			}
		}
		runtime.GC()
	}
	return nil
}

// probeCellBudget bounds the DP cells the align probe covers per run.
const probeCellBudget = 400_000

// alignProbe times the align kernels over the instance's own fragment
// pairs (every H fragment against every M fragment, in order, until the
// run's cell budget is spent): float64 and int32 Score, and float64
// Placements. Each kernel makes the same pass, repeated until it has run
// for at least probeMinTime.
func alignProbe(in *core.Instance, tot *layerTotals) {
	c := score.Compile(in.Sigma, in.MaxSymbolID())
	ci := c.Int()
	var pairs [][2]symbol.Word
	cells := 0
	for _, h := range in.H {
		for _, g := range in.M {
			if tot.probeCells+cells >= probeCellBudget {
				break
			}
			pairs = append(pairs, [2]symbol.Word{h.Regions, g.Regions})
			cells += len(h.Regions) * len(g.Regions)
		}
	}
	if cells == 0 {
		return
	}
	kernels := []func(a, b symbol.Word){
		func(a, b symbol.Word) { align.Score(a, b, c) },
		func(a, b symbol.Word) { align.Score(a, b, ci) },
		func(a, b symbol.Word) { align.Placements(a, b, c, 0) },
	}
	var ns [3]float64
	for k, fn := range kernels {
		ns[k] = timePerCell(pairs, cells, fn)
	}
	// Weighted by cells, so the run's figure is total time / total cells.
	w := float64(cells)
	prev := float64(tot.probeCells)
	tot.scoreNS = (tot.scoreNS*prev + ns[0]*w) / (prev + w)
	tot.scoreIntNS = (tot.scoreIntNS*prev + ns[1]*w) / (prev + w)
	tot.placeNS = (tot.placeNS*prev + ns[2]*w) / (prev + w)
	tot.probeCells += cells
	// Computed bytes: one DP cell value per cell and kernel (8 bytes for
	// float64 Score and Placements, 4 for int32 Score).
	tot.probeMB += float64(cells) * (8 + 4 + 8) / (1 << 20)
}

const probeMinTime = 20 * time.Millisecond

func timePerCell(pairs [][2]symbol.Word, cells int, fn func(a, b symbol.Word)) float64 {
	reps := 0
	start := time.Now()
	for time.Since(start) < probeMinTime || reps == 0 {
		for _, p := range pairs {
			fn(p[0], p[1])
		}
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*cells)
}

// encodingProbe times ReadJSONLWith (one interner, as csrserve keeps per
// tenant) over the given JSONL bytes and WriteJSONLResult over the result
// records; both per instance.
func encodingProbe(r *run, data []byte, recs []encoding.ResultRecord) {
	var n int
	t0 := time.Now()
	err := encoding.ReadJSONLWith(bytes.NewReader(data), encoding.NewSigmaInterner(), func(*core.Instance) error {
		n++
		return nil
	})
	read := time.Since(t0)
	r.check(err == nil && n > 0, "encoding probe read %d instances: %v", n, err)
	var buf bytes.Buffer
	t0 = time.Now()
	for i := range recs {
		if err := encoding.WriteJSONLResult(&buf, &recs[i]); err != nil {
			r.check(false, "encoding probe write: %v", err)
			break
		}
	}
	write := time.Since(t0)
	r.set("encoding.read_jsonl_ms", ms(read)/float64(max(n, 1)))
	r.set("encoding.write_result_ms", ms(write)/float64(max(len(recs), 1)))
}

// improveSelf is improve's self time: Improve runs the 4-approximation
// itself, and the seeding pipeline when the mode is seeded, so both are
// taken out of its inclusive span.
func (tot *layerTotals) improveSelf(m mode) time.Duration {
	self := tot.solve - tot.fourApprox
	if m.seeded {
		self -= tot.seedT
	}
	return self
}

// setLayers reports the pipeline's per-layer metrics. A run whose own
// loop did not count attempts counts the traced instances.
func (r *run) setLayers(tot *layerTotals, tr *tracer) {
	if r.Attempted == 0 {
		r.Attempted = tot.n
	}
	n := float64(max(tot.n, 1))
	r.set("score.prepare_ms", ms(tot.prepare)/n)
	r.set("score.alloc_mb", mb(tot.prepareAlloc)/n)
	r.set("seed.candidates_ms", ms(tot.seedT)/n)
	r.set("seed.pairs", float64(tot.pairs)/n)
	r.set("seed.anchors", float64(tot.anchors)/n)
	r.set("seed.pair_space", float64(tot.pairSpace)/n)
	r.set("seed.pair_fraction", float64(tot.pairs)/float64(max(tot.pairSpace, 1)))
	r.set("onecsr.fourapprox_ms", ms(tot.fourApprox)/n)
	r.set("improve.solve_ms", ms(tot.solve)/n)
	r.set("improve.self_ms", ms(tot.improveSelf(r.mode()))/n)
	r.set("improve.alloc_mb", mb(tot.solveAlloc)/n)
	r.set("improve.evaluated", float64(tot.evaluated)/n)
	r.set("improve.popped", float64(tot.popped)/n)
	r.set("improve.resimulated", float64(tot.resimulated)/n)
	r.set("improve.skipped", float64(tot.skipped)/n)
	r.set("improve.enum_refreshed", float64(tot.enumRefreshed)/n)
	r.set("improve.enum_reused", float64(tot.enumReused)/n)
	r.set("improve.accepted", float64(tot.accepted)/n)
	r.set("improve.accept_per_evaluated", float64(tot.accepted)/float64(max(tot.evaluated, 1)))
	r.set("improve.enum_reuse_ratio", float64(tot.enumReused)/float64(max(tot.enumReused+tot.enumRefreshed, 1)))
	r.set("core.conjecture_ms", ms(tot.conjecture)/n)
	r.set("align.cells", float64(tot.probeCells))
	r.set("align.score_ns_per_cell", tot.scoreNS)
	r.set("align.score_int_ns_per_cell", tot.scoreIntNS)
	r.set("align.placements_ns_per_cell", tot.placeNS)
	r.set("align.computed_mb", tot.probeMB)
	r.set("trace.instances", float64(tot.n))
	r.set("trace.spans", float64(len(tr.spans)))
	r.set("trace.pipeline_ms", ms(tot.untracedWall)/n)
	r.set("trace.overhead_ms", ms(tot.tracedWall-tot.untracedWall)/n)
}

// finishTrace writes the span file and prints two self-time tables: the
// layer pipeline, with improve's self time derived as in improve.self_ms,
// and the delivery spans (batch tickets, serve requests).
func (r *run) finishTrace(tr *tracer, tot *layerTotals) error {
	path, err := r.spanPath()
	if err != nil {
		return err
	}
	if err := writeSpans(path, tr.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	self := layerSelf(tr.spans)
	printSelfTable(os.Stderr, r.workload+", layer pipeline", map[string]time.Duration{
		"score":   self["score.prepare"],
		"onecsr":  self["onecsr.fourapprox"],
		"seed":    self["seed.candidates"],
		"improve": tot.improveSelf(r.mode()),
		"core":    self["core.conjecture"],
	})
	delivery := map[string]time.Duration{}
	for name, d := range self {
		if strings.HasPrefix(name, "batch.") || strings.HasPrefix(name, "serve.") {
			delivery[name] = d
		}
	}
	printSelfTable(os.Stderr, r.workload+", delivery spans", delivery)
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	return nil
}
