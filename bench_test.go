package fragalign

// Benchmarks wrapping the kernels of the internal/experiments suite (E1–E8,
// E10), plus ablations of design choices the paper leaves open. Run with
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/csop"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/improve"
	"repro/internal/isp"
	"repro/internal/onecsr"
	"repro/internal/score"
	"repro/internal/symbol"
	"repro/internal/ucsr"
)

// BenchmarkE1PaperExample solves the §1 worked example with CSR_Improve.
func BenchmarkE1PaperExample(b *testing.B) {
	in := core.PaperExample()
	for i := 0; i < b.N; i++ {
		sol, _, err := improve.Improve(in, improve.Options{})
		if err != nil || sol.Score() != 11 {
			b.Fatalf("score %v err %v", sol.Score(), err)
		}
	}
}

// BenchmarkE2CSoPReduction runs the Theorem 2 pipeline (cubic graph →
// CSoP → exact → independent set) at 12 nodes.
func BenchmarkE2CSoPReduction(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, err := graph.RandomCubic(r, 12)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		red, err := csop.FromCubic(g, r)
		if err != nil {
			b.Fatal(err)
		}
		opt := csop.Exact(red.Inst)
		if _, err := red.ExtractIS(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3UCSRReduction builds π₀, lifts the optimum, and projects back
// at ε = 0.25.
func BenchmarkE3UCSRReduction(b *testing.B) {
	x, err := ucsr.Replicate(core.PaperExample())
	if err != nil {
		b.Fatal(err)
	}
	sol := core.PaperExampleOptimum()
	for i := 0; i < b.N; i++ {
		red, err := ucsr.Reduce(x, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		f, err := red.LiftSolution(sol)
		if err != nil {
			b.Fatal(err)
		}
		proj, err := red.Project(f)
		if err != nil || proj.Score != 11 {
			b.Fatalf("score %v err %v", proj.Score, err)
		}
	}
}

// BenchmarkE4Doubling evaluates both Theorem 3 companion instances exactly.
func BenchmarkE4Doubling(b *testing.B) {
	in := core.PaperExample()
	for i := 0; i < b.N; i++ {
		if _, err := onecsr.HalfOnConcat(in); err != nil {
			b.Fatal(err)
		}
		if _, err := onecsr.HalfOnConcat(onecsr.Transpose(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5TwoPhase measures the O(n log n) two-phase ISP algorithm.
func BenchmarkE5TwoPhase(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(2))
			items := make([]isp.Interval, n)
			for i := range items {
				lo := r.Intn(n)
				items[i] = isp.Interval{
					ID: i, Job: r.Intn(n/4 + 1), Lo: lo, Hi: lo + 1 + r.Intn(n/8+1),
					Profit: float64(1 + r.Intn(20)),
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				isp.TwoPhase(items)
			}
		})
	}
}

// BenchmarkE6FourApprox runs Corollary 1's algorithm on a synthetic genome.
func BenchmarkE6FourApprox(b *testing.B) {
	w := gen.Generate(gen.DefaultConfig(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := onecsr.FourApprox(w.Instance); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Improve measures the Theorem 4–6 algorithms on a 60-region
// synthetic genome, each seeded with the 4-approximation; enum is a
// multi-round empty-start CSR_Improve solve, where incremental enumeration
// and lazy selection carry the cost instead of round-0 simulation.
func BenchmarkE7Improve(b *testing.B) {
	cfg := gen.DefaultConfig(4)
	cfg.Regions = 60
	w := gen.Generate(cfg)
	for _, m := range []struct {
		name string
		opt  improve.Options
	}{
		{"full", improve.Options{Methods: improve.FullOnly, Eps: 0.05, SeedWithFourApprox: true}},
		{"border", improve.Options{Methods: improve.BorderOnly, Eps: 0.05, SeedWithFourApprox: true}},
		{"csr", improve.Options{Methods: improve.AllMethods, Eps: 0.05, SeedWithFourApprox: true}},
		{"enum", improve.Options{Methods: improve.AllMethods, Eps: 0.05}},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := improve.Improve(w.Instance, m.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Matching measures the Lemma 9 Hungarian-based 2-approximation.
func BenchmarkE8Matching(b *testing.B) {
	w := gen.Generate(gen.DefaultConfig(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := improve.MatchingTwoApprox(w.Instance); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Fooling runs greedy and CSR_Improve on the adversarial
// family.
func BenchmarkE10Fooling(b *testing.B) {
	in := greedy.FoolingInstance(8, 10)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			greedy.Matching(in)
		}
	})
	b.Run("csr-improve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sol, _, err := improve.Improve(in, improve.Options{})
			if err != nil || sol.Score() != 8*(4*10.0-4) {
				b.Fatalf("score %v err %v", sol.Score(), err)
			}
		}
	})
}

// BenchmarkAblationTPA compares the two-phase algorithm against greedy
// interval selection inside the TPA candidate sets (§3.4).
func BenchmarkAblationTPA(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	items := make([]isp.Interval, 5000)
	for i := range items {
		lo := r.Intn(5000)
		items[i] = isp.Interval{
			ID: i, Job: r.Intn(1200), Lo: lo, Hi: lo + 1 + r.Intn(400),
			Profit: float64(1 + r.Intn(20)),
		}
	}
	b.Run("two-phase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			isp.TwoPhase(items)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			isp.Greedy(items)
		}
	})
}

// BenchmarkAblationSeeding compares empty-start CSR_Improve, as in the
// paper, against starting from the Corollary 1 4-approximation.
func BenchmarkAblationSeeding(b *testing.B) {
	cfg := gen.DefaultConfig(9)
	cfg.Regions = 50
	w := gen.Generate(cfg)
	for _, seeded := range []bool{false, true} {
		name := "empty-start"
		if seeded {
			name = "four-approx-seed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := improve.Improve(w.Instance, improve.Options{
					Eps: 0.05, SeedWithFourApprox: seeded,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScaling compares thresholded acceptance (§4.1 scaling)
// against accepting every positive gain.
func BenchmarkAblationScaling(b *testing.B) {
	cfg := gen.DefaultConfig(10)
	cfg.Regions = 40
	w := gen.Generate(cfg)
	for _, eps := range []float64{0, 0.05, 0.25} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := improve.Improve(w.Instance, improve.Options{
					Eps: eps, SeedWithFourApprox: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactEnumeration measures the parallel exact solver fan-out.
func BenchmarkExactEnumeration(b *testing.B) {
	in := core.PaperExample()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exact.Solve(in, exact.Solver{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlignmentKernels compares the score, banded and fit-placement
// kernels on one workload.
func BenchmarkAlignmentKernels(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	tb := score.NewTable()
	for i := 1; i <= 30; i++ {
		tb.Set(symbol.Symbol(i), symbol.Symbol(i%30+1), float64(1+i%5))
	}
	mk := func(n int) symbol.Word {
		w := make(symbol.Word, n)
		for i := range w {
			w[i] = symbol.Symbol(1 + r.Intn(30))
		}
		return w
	}
	a, bb := mk(500), mk(500)
	b.Run("score", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.Score(a, bb, tb)
		}
	})
	b.Run("banded-64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.ScoreBanded(a, bb, tb, 64)
		}
	})
	b.Run("placements", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.Placements(a[:40], bb, tb, 0)
		}
	})
	// Integer-quantized variants on the same inputs (this σ is integral, so
	// the quantized matrix returns bit-identical scores): the same sparse
	// kernels over the quantized cells, exercising the int API.
	ci := score.Compile(tb, 30).Int()
	b.Run("score-int32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			align.Score(a, bb, ci)
		}
	})
	b.Run("banded-64-int32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.ScoreBanded(a, bb, ci, 64)
		}
	})
	b.Run("placements-int32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.Placements(a[:40], bb, ci, 0)
		}
	})
}

// BenchmarkBatchSolve measures the sharded batch-solving subsystem against
// sequential solving of the same instance set: the sharded run must beat
// sequential by >2x on a multi-core machine (the CI bench-trajectory job
// asserts this via TestBatchThroughput). The custom inst/s metric is the
// serving-throughput number the ROADMAP tracks.
func BenchmarkBatchSolve(b *testing.B) {
	const nInstances, regions = 16, 60
	ins := make([]*Instance, nInstances)
	for i := range ins {
		cfg := DefaultGenConfig(int64(300 + i))
		cfg.Regions = regions
		ins[i] = Generate(cfg).Instance
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range ins {
				if _, err := Solve(in, CSRImprove, WithFourApproxSeed(true)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(nInstances)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveBatch(context.Background(), ins, CSRImprove, WithFourApproxSeed(true)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nInstances)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
	})
	b.Run("sharded-pool-reuse", func(b *testing.B) {
		// One pool across all iterations: the per-alphabet σ cache and the
		// shards are amortized the way a serving process would amortize them.
		pool := NewBatchPool(CSRImprove, WithFourApproxSeed(true))
		defer pool.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tickets := make([]*BatchTicket, len(ins))
			for j, in := range ins {
				t, err := pool.Submit(context.Background(), in)
				if err != nil {
					b.Fatal(err)
				}
				tickets[j] = t
			}
			for _, t := range tickets {
				if _, err := t.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(nInstances)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
	})
}

// genomeShaped returns the genome-shaped instance of the σ and placement
// benches: 1,000 regions in short contigs (dim 4,001, under 1,800 nonzero
// σ cells).
func genomeShaped() *core.Instance {
	cfg := gen.DefaultConfig(1)
	cfg.Regions = 1000
	cfg.MeanContig = 6
	cfg.Inversions = 8
	cfg.InversionLen = 25
	cfg.Translocations = 2
	cfg.Spurious = 100
	return gen.Generate(cfg).Instance
}

// BenchmarkSigmaPrepare measures preparing a fresh σ for the genome-shaped
// instance: Compile, Transposed and both orientations' PosRow index, plus
// Int() and the quantized forms for the int sub-benchmark. Each iteration
// compiles a fresh clone of the table, so the table's compile cache never
// hits.
func BenchmarkSigmaPrepare(b *testing.B) {
	in := genomeShaped()
	sigma, maxID := in.Sigma.(*score.Table), in.MaxSymbolID()
	run := func(b *testing.B, prepare func(c *score.Compiled)) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb := sigma.Clone()
			b.StartTimer()
			prepare(score.Compile(tb, maxID))
		}
	}
	b.Run("float", func(b *testing.B) {
		run(b, func(c *score.Compiled) {
			c.PosRow(1)
			c.Transposed().PosRow(1)
		})
	})
	b.Run("int", func(b *testing.B) {
		run(b, func(c *score.Compiled) {
			ci := c.Int()
			ci.PosRow(1)
			ci.Transposed().PosRow(1)
		})
	})
}

// BenchmarkFourApproxPlacements measures the placement DPs of the
// 4-approximation's shape on the genome-shaped instance: every H fragment,
// in both orientations, against the concatenation of all M fragments, over
// the compiled σ, through the one-zone entry point FourApprox runs. ns/cell
// is per cell of the dense DP the kernel stands in for.
func BenchmarkFourApproxPlacements(b *testing.B) {
	in := genomeShaped()
	c := score.Compile(in.Sigma, in.MaxSymbolID())
	var zone symbol.Word
	for _, g := range in.M {
		zone = append(zone, g.Regions...)
	}
	queries := make([]symbol.Word, 0, 2*len(in.H))
	cells := 0
	for _, h := range in.H {
		queries = append(queries, h.Regions, h.Regions.Rev())
		cells += 2 * len(h.Regions) * len(zone)
	}
	s := align.NewScratch()
	defer s.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PlacementsEach(zone, queries, c, 0, func(int, []align.Placement) {})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(cells)), "ns/cell")
}

// BenchmarkFourApproxGenome measures the whole 4-approximation — both
// Theorem 3 halves, their ISP selections, the split back onto fragments
// and the validations — on the genome-shaped instance with σ prepared
// once, as a seeded solve hands it over.
func BenchmarkFourApproxGenome(b *testing.B) {
	in := *genomeShaped()
	in.Sigma = score.Prepare(in.Sigma, in.MaxSymbolID())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := onecsr.FourApprox(&in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImproveGenomeSeeded measures a whole seeded CSR_Improve solve —
// the 4-approximation start, minimizer seeding and the improvement rounds —
// on the genome-shaped instance with σ prepared once, the shape of the
// genome-seeded perfbench workload. The improve work counters ride along
// as custom metrics; they are deterministic, so a move in them is a change
// in the work done, not drift.
func BenchmarkImproveGenomeSeeded(b *testing.B) {
	in := *genomeShaped()
	in.Sigma = score.Prepare(in.Sigma, in.MaxSymbolID())
	opt := improve.Options{Methods: improve.AllMethods, Eps: 0.05, SeedWithFourApprox: true, Seeded: true}
	var stats improve.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, stats, err = improve.Improve(&in, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Evaluated), "evaluated")
	b.ReportMetric(float64(stats.Resimulated), "resimulated")
}

// BenchmarkSolveGenomeSeeded measures a whole seeded Solve as the
// genome-seeded perfbench workload runs it: the options it passes, and a
// fresh σ table per iteration, so σ compilation, the 4-approximation,
// seeding, the improvement rounds and the conjecture check are all inside
// the timing.
func BenchmarkSolveGenomeSeeded(b *testing.B) {
	in := *genomeShaped()
	sigma := in.Sigma.(*score.Table)
	opts := []Option{WithFourApproxSeed(true), WithIntScore(false), WithSeededCandidates(true)}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in.Sigma = sigma.Clone()
		b.StartTimer()
		if _, err := Solve(&in, CSRImprove, opts...); err != nil {
			b.Fatal(err)
		}
	}
}
