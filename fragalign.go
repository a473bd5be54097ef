// Package fragalign aligns two fragmented sequences: a complete Go
// implementation of "Aligning two fragmented sequences" (Veeramachaneni,
// Berman, Miller; IPPS 2002 / Discrete Applied Mathematics 127, 2003).
//
// Two partially sequenced genomes are given as sets of contigs, each an
// ordered list of conserved regions with cross-species alignment scores σ.
// The Consensus Sequence Reconstruction (CSR) problem orients and orders
// the contigs of each species, deleting regions as needed, to maximize the
// total alignment score — computationally inferring contig order and
// orientation from comparative data alone.
//
// The package exposes:
//
//   - instance construction (Builder), parsing and serialization;
//   - the paper's approximation algorithms: the ratio-(3+ε) iterative
//     improvement family CSR_Improve / Full_Improve / Border_Improve
//     (Theorems 4–6), the ISP-based 4-approximation (Corollary 1), and the
//     Lemma 9 matching 2-approximation;
//   - baselines: exact enumeration for small instances and greedy
//     heuristics;
//   - solution objects that verify their own consistency by constructing a
//     realizing conjecture pair (Definition 2 / Remark 1);
//   - a synthetic fragmented-genome workload generator with ground truth.
//
// Quick start:
//
//	b := fragalign.NewBuilder("demo")
//	b.FragmentH("h1", "a b c")
//	b.FragmentM("m1", "s t")
//	b.Score("a", "s", 4)
//	in, _ := b.Build()
//	res, _ := fragalign.Solve(in, fragalign.CSRImprove)
//	fmt.Println(res.Score, res.LayoutH, res.LayoutM)
package fragalign

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/exact"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/greedy"
	"repro/internal/improve"
	"repro/internal/improve/enum"
	"repro/internal/onecsr"
	"repro/internal/score"
	"repro/internal/symbol"
)

// Re-exported model types. The underlying implementations live in internal
// packages; these aliases are the supported public surface.
type (
	// Instance is one CSR problem: fragment sets H and M plus σ.
	Instance = core.Instance
	// Fragment is one contig.
	Fragment = core.Fragment
	// Species selects the H or M side.
	Species = core.Species
	// Site is a contiguous subfragment f(i..j).
	Site = core.Site
	// Match pairs an H site with an M site at a relative orientation.
	Match = core.Match
	// Solution is a set of matches.
	Solution = core.Solution
	// Conjecture is a realized conjecture pair with layouts.
	Conjecture = core.Conjecture
	// OrientedFrag is a fragment with an orientation in a layout.
	OrientedFrag = core.OrientedFrag
	// Word is a sequence of region symbols.
	Word = symbol.Word
	// Symbol is one conserved-region occurrence.
	Symbol = symbol.Symbol
	// GenConfig parameterizes the synthetic workload generator.
	GenConfig = gen.Config
	// Canonical is a shared alphabet/σ table for generated workloads: set
	// GenConfig.Canonical so a whole batch shares one score table (and the
	// batch pool's per-alphabet cache compiles it once).
	Canonical = gen.Canonical
	// Workload is a generated instance with ground truth.
	Workload = gen.Workload
	// Accuracy quantifies ground-truth layout recovery.
	Accuracy = gen.Accuracy
	// ImproveStats reports on an iterative-improvement run.
	ImproveStats = improve.Stats
	// CheckpointOp is one accepted improvement operation — the unit of the
	// solver's crash-recovery log. The improvement driver is deterministic:
	// replaying a solve's accepted ops over a fresh state reproduces its
	// exact mid-solve state, so a durable op log IS a checkpoint.
	CheckpointOp = enum.Cand
	// CheckpointSink receives each accepted operation of an improvement
	// solve as it happens (see WithCheckpoint). A sink error aborts
	// the solve: the solver never runs ahead of its durable log.
	// encoding.CheckpointWriter is the file-backed implementation.
	CheckpointSink = improve.CheckpointSink
)

// Species constants.
const (
	SpeciesH = core.SpeciesH
	SpeciesM = core.SpeciesM
)

// Builder assembles instances from region names. Reversed occurrences are
// written with a trailing apostrophe: "a'" is aᴿ.
type Builder struct {
	in  *core.Instance
	tb  *score.Table
	err error
}

// NewBuilder starts an empty instance.
func NewBuilder(name string) *Builder {
	tb := score.NewTable()
	return &Builder{
		in: &core.Instance{Name: name, Alpha: symbol.NewAlphabet(), Sigma: tb},
		tb: tb,
	}
}

// FragmentH appends an H-side contig given as space-separated region names.
func (b *Builder) FragmentH(name, regions string) *Builder {
	return b.frag(core.SpeciesH, name, regions)
}

// FragmentM appends an M-side contig.
func (b *Builder) FragmentM(name, regions string) *Builder {
	return b.frag(core.SpeciesM, name, regions)
}

func (b *Builder) frag(sp core.Species, name, regions string) *Builder {
	if b.err != nil {
		return b
	}
	w, err := b.in.Alpha.ParseWord(regions)
	if err != nil {
		b.err = err
		return b
	}
	f := core.Fragment{Name: name, Regions: w}
	if sp == core.SpeciesH {
		b.in.H = append(b.in.H, f)
	} else {
		b.in.M = append(b.in.M, f)
	}
	return b
}

// Score records σ(a, b) = v (and σ(aᴿ, bᴿ) = v by reversal symmetry). Use
// the apostrophe suffix for reversed occurrences, e.g. Score("b", "t'", 3).
func (b *Builder) Score(a, bb string, v float64) *Builder {
	if b.err != nil {
		return b
	}
	sa, err := b.in.Alpha.ParseSymbol(a)
	if err != nil {
		b.err = err
		return b
	}
	sb, err := b.in.Alpha.ParseSymbol(bb)
	if err != nil {
		b.err = err
		return b
	}
	b.tb.Set(sa, sb, v)
	return b
}

// Build validates and returns the instance.
func (b *Builder) Build() (*Instance, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.in.Validate(); err != nil {
		return nil, err
	}
	return b.in, nil
}

// PaperExample returns the worked data set of the paper's §1 (Fig. 2),
// whose optimal score is 11.
func PaperExample() *Instance { return core.PaperExample() }

// Generate builds a synthetic fragmented-genome workload.
func Generate(cfg GenConfig) *Workload { return gen.Generate(cfg) }

// NewCanonical builds a canonical alphabet/σ table for GenConfig.Canonical.
func NewCanonical(cfg GenConfig) *Canonical { return gen.NewCanonical(cfg) }

// DefaultGenConfig returns a small structured workload configuration.
func DefaultGenConfig(seed int64) GenConfig { return gen.DefaultConfig(seed) }

// GenPreset returns a named workload configuration ("genome-small",
// "genome-large"); ok is false for unknown names. The genome presets carry
// a shared canonical alphabet — reuse the returned Config (changing only
// Seed) across a batch so every instance targets the same σ table.
func GenPreset(name string, seed int64) (GenConfig, bool) { return gen.Preset(name, seed) }

// GenPresetNames lists the presets accepted by GenPreset.
func GenPresetNames() []string { return gen.PresetNames() }

// ReadInstance parses the text instance format.
func ReadInstance(r io.Reader) (*Instance, error) { return encoding.ReadText(r) }

// WriteInstance serializes an instance in the text format.
func WriteInstance(w io.Writer, in *Instance) error { return encoding.WriteText(w, in) }

// Algorithm selects a CSR solver.
type Algorithm string

// Available algorithms.
const (
	// Exact enumerates all conjecture pairs (small instances only).
	Exact Algorithm = "exact"
	// GreedyMatching is the best-pair-first whole-fragment heuristic.
	GreedyMatching Algorithm = "greedy"
	// GreedyPlacement is the best-placement-first heuristic.
	GreedyPlacement Algorithm = "greedy-placement"
	// FourApprox is Corollary 1: the ISP-based 4-approximation.
	FourApprox Algorithm = "four-approx"
	// Matching2 is the Lemma 9 matching-based 2-approximation for Border
	// CSR instances.
	Matching2 Algorithm = "matching2"
	// FullImprove is Theorem 4's I1-only iterative improvement (Full CSR).
	FullImprove Algorithm = "full-improve"
	// BorderImprove is Theorem 5's I2/I3 iterative improvement (Border CSR).
	BorderImprove Algorithm = "border-improve"
	// CSRImprove is Theorem 6's combined algorithm — ratio 3+ε for general
	// CSR; the paper's headline solver.
	CSRImprove Algorithm = "csr-improve"
)

// Algorithms lists every solver name.
func Algorithms() []Algorithm {
	return []Algorithm{Exact, GreedyMatching, GreedyPlacement, FourApprox,
		Matching2, FullImprove, BorderImprove, CSRImprove}
}

// Option tunes Solve.
type Option func(*solveCfg)

type solveCfg struct {
	workers    int
	eps        float64
	seed4      bool
	exactCap   int
	check      bool
	quantize   bool
	intScore   bool
	partial    bool
	seeded     bool
	checkpoint CheckpointSink
	resume     []CheckpointOp
	// Batch-only knobs (see solvebatch.go).
	shards    int
	queue     int
	timeout   time.Duration
	inject    *faultinject.Injector
	memBudget int64
}

// WithWorkers parallelizes the exact solver's layout enumeration. It has no
// effect on the other algorithms: every improvement solve runs on one
// goroutine, and batch parallelism comes from WithShards.
func WithWorkers(n int) Option { return func(c *solveCfg) { c.workers = n } }

// WithEps sets the §4.1 scaling slack for the improvement algorithms
// (default 0.05). Zero accepts every attempt that strictly raises the
// score, down to the last ulp, and still terminates.
func WithEps(eps float64) Option { return func(c *solveCfg) { c.eps = eps } }

// WithFourApproxSeed starts the improvement algorithms from the Corollary 1
// solution instead of the empty set.
func WithFourApproxSeed(on bool) Option { return func(c *solveCfg) { c.seed4 = on } }

// WithExactCap raises the exact solver's per-side fragment cap.
func WithExactCap(n int) Option { return func(c *solveCfg) { c.exactCap = n } }

// WithConsistencyChecks validates the solution after every improvement
// step (slow; for debugging).
func WithConsistencyChecks(on bool) Option { return func(c *solveCfg) { c.check = on } }

// WithQuantizedScaling uses the literal §4.1 Chandra–Halldórsson scaling
// for the improvement algorithms: search under scores truncated to
// multiples of X/k², re-score under the true σ at the end.
func WithQuantizedScaling(on bool) Option { return func(c *solveCfg) { c.quantize = on } }

// WithIntScore runs the solver's search over the integer-quantized σ
// matrix (score.CompiledInt): every cell is rounded to a whole number of
// units (unit auto-derived from the value range, or exact when every score
// is an integer multiple of one unit), and the usual alignment kernels run
// on those cells, scaling by the unit at the boundary. It is not faster
// than float64 mode: the kernels and the matrix size are the same. The
// final solution is re-scored under the true σ, so Result.Score is always
// exact; only the search itself sees quantized values, deviating from
// float64 mode by at most the score.CompiledInt error bound (zero for
// integral σ). Off by default.
func WithIntScore(on bool) Option { return func(c *solveCfg) { c.intScore = on } }

// WithSeededCandidates replaces the improvement algorithms' default pair
// universe — the positive-σ mask, every fragment pair sharing a positive σ
// cell, which loses nothing against all pairs — with minimizer
// seed-and-chain candidate generation (internal/seed): only fragment pairs
// whose words share σ-translated minimizer chains enter the search. This is
// the genome-scale mode — a much smaller universe on large instances — at
// the cost of a documented recall bound: pairs whose best alignment has no
// seed chain are never tried.
func WithSeededCandidates(on bool) Option { return func(c *solveCfg) { c.seeded = on } }

// WithPartialResults degrades deadline and cancellation failures of the
// improvement algorithms gracefully: when the context fires mid-solve, the
// solver returns the last accepted solution — consistent, with Score exact
// under the true σ — and marks ImproveStats.Partial instead of failing with
// the context error. In the spirit of the paper's 4-approximation, an
// anytime answer beats no answer; off by default, so deadline overruns stay
// hard errors. Batch pools take it per submission too (BatchPool.Submit).
func WithPartialResults(on bool) Option { return func(c *solveCfg) { c.partial = on } }

// WithCheckpoint hands every accepted improvement operation of a solve to
// sink before the solve proceeds; a sink error aborts the solve. With a
// durable sink (encoding.CreateCheckpoint) a killed solve can be resumed
// from its last flushed op via WithResume. Improvement algorithms only;
// other solvers ignore it. Pass it to BatchPool.Submit to checkpoint one
// submission, or to Solve for a single solve.
func WithCheckpoint(sink CheckpointSink) Option { return func(c *solveCfg) { c.checkpoint = sink } }

// WithResume fast-forwards a solve through a previously checkpointed
// accepted-op log before its round loop starts. The ops must come from a
// checkpoint of the same instance under the same solve configuration
// (encoding.CheckpointHeader.Fingerprint is how csrbatch pins this); the
// resumed solve's remaining accepted sequence, final solution, and score are
// then bit-identical to the uninterrupted run's. Ops that do not fit the
// instance fail the solve with a typed error. Improvement algorithms only.
func WithResume(ops []CheckpointOp) Option { return func(c *solveCfg) { c.resume = ops } }

// WithShards sets the number of concurrent per-instance solvers a batch
// pool runs (default GOMAXPROCS). Batch APIs only; Solve ignores it.
func WithShards(n int) Option { return func(c *solveCfg) { c.shards = n } }

// WithQueueDepth bounds a batch pool's submission queue (default
// 2×shards); Submit blocks while the queue is full. Batch APIs only.
func WithQueueDepth(n int) Option { return func(c *solveCfg) { c.queue = n } }

// WithPerInstanceTimeout gives every batch-submitted instance its own
// solve deadline; an instance that exceeds it fails with
// context.DeadlineExceeded without affecting the rest of the batch.
// Batch APIs only.
func WithPerInstanceTimeout(d time.Duration) Option {
	return func(c *solveCfg) { c.timeout = d }
}

// WithMemBudget caps the estimated memory footprint of any single instance a
// batch pool admits: submissions whose cost-model estimate (σ compile bytes
// from σ's nonzero cells, doubled under WithIntScore for the quantized
// matrix and its transpose;
// DP scratch from the fragment-length profile; solver state) exceeds bytes
// are refused with an *OverBudgetError instead of being queued to die on
// OOM. Instances whose σ is already resident in the pool's per-alphabet
// cache are charged only scratch + state. 0 (the default) disables the
// gate. Batch APIs only.
func WithMemBudget(bytes int64) Option {
	return func(c *solveCfg) { c.memBudget = bytes }
}

// Result is a solved instance.
type Result struct {
	// Algorithm that produced the result.
	Algorithm Algorithm
	// Score is the total score of the solution.
	Score float64
	// Solution is the consistent match set (nil for Exact, which proves
	// the optimum by enumeration instead).
	Solution *Solution
	// Conjecture realizes the solution (nil for Exact).
	Conjecture *Conjecture
	// LayoutH and LayoutM are the inferred fragment orders/orientations.
	LayoutH, LayoutM []OrientedFrag
	// Stats carries improvement-run statistics when applicable.
	Stats *ImproveStats
	// Wall is the solve's wall-clock duration (queueing excluded for
	// batch-submitted instances).
	Wall time.Duration
}

func newSolveCfg(opts []Option) solveCfg {
	var cfg solveCfg
	cfg.eps = 0.05
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Solve runs the selected algorithm on the instance.
func Solve(in *Instance, alg Algorithm, opts ...Option) (*Result, error) {
	return solveInstance(nil, in, alg, newSolveCfg(opts))
}

// solveInstance is the shared solver core behind Solve and the batch APIs:
// ctx cancels improvement runs sub-round (between candidate simulations and
// inside TPA batches).
func solveInstance(ctx context.Context, in *Instance, alg Algorithm, cfg solveCfg) (*Result, error) {
	res := &Result{Algorithm: alg}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()
	// Integer scoring mode: the non-improvement algorithms solve a shadow
	// instance whose σ is the int32-quantized matrix, and the resulting
	// match set is re-scored under the true σ before the conjecture is
	// built — quantization never leaks into Result.Score. The improvement
	// algorithms handle the same swap internally (improve.Options.IntScore).
	solveIn := in
	var denseSigma *score.Compiled // retained for the boundary re-score
	intBoundary := false
	if cfg.intScore {
		switch alg {
		case Exact, GreedyMatching, GreedyPlacement, FourApprox, Matching2:
			denseSigma = score.Compile(in.Sigma, in.MaxSymbolID())
			shadow := *in
			shadow.Sigma = denseSigma.Int()
			solveIn = &shadow
			intBoundary = alg != Exact // exact re-scores its winner itself
		}
	}
	var sol *Solution
	switch alg {
	case Exact:
		r, err := exact.Solve(solveIn, exact.Solver{MaxFrags: cfg.exactCap, Workers: cfg.workers})
		if err != nil {
			return nil, err
		}
		res.Score = r.Score
		res.LayoutH, res.LayoutM = r.HOrder, r.MOrder
		return res, nil
	case GreedyMatching:
		sol = greedy.Matching(solveIn)
	case GreedyPlacement:
		sol = greedy.Placement(solveIn)
	case FourApprox:
		var err error
		sol, err = onecsr.FourApprox(solveIn)
		if err != nil {
			return nil, err
		}
	case Matching2:
		var err error
		sol, err = improve.MatchingTwoApprox(solveIn)
		if err != nil {
			return nil, err
		}
	case FullImprove, BorderImprove, CSRImprove:
		methods := improve.AllMethods
		if alg == FullImprove {
			methods = improve.FullOnly
		}
		if alg == BorderImprove {
			methods = improve.BorderOnly
		}
		s, stats, err := improve.Improve(in, improve.Options{
			Methods:            methods,
			Eps:                cfg.eps,
			SeedWithFourApprox: cfg.seed4,
			Quantize:           cfg.quantize,
			IntScore:           cfg.intScore,
			Seeded:             cfg.seeded,
			CheckInvariants:    cfg.check,
			Partial:            cfg.partial,
			Checkpoint:         cfg.checkpoint,
			Resume:             cfg.resume,
			Ctx:                ctx,
		})
		if err != nil {
			return nil, err
		}
		sol = s
		res.Stats = &stats
	default:
		return nil, fmt.Errorf("fragalign: unknown algorithm %q", alg)
	}
	if intBoundary {
		// Dequantization boundary: cached match scores leave the integer
		// search re-scored under the exact σ the shadow was quantized from.
		// The solver built sol for this call alone, so mutate it directly.
		improve.RescoreInPlace(in, sol, denseSigma)
	}
	// Validate over the compiled σ: the check re-aligns every match, and the
	// compiled kernels read σ from its sparse rows instead of one interface
	// lookup per cell. Scores are bit-identical, and a Table caches its
	// compiled matrix, so after a solve this costs a lookup.
	checkIn := *in
	checkIn.Sigma = score.Prepare(in.Sigma, in.MaxSymbolID())
	conj, err := sol.BuildConjecture(&checkIn)
	if err != nil {
		return nil, fmt.Errorf("fragalign: %s produced an inconsistent solution: %w", alg, err)
	}
	res.Solution = sol
	res.Score = sol.Score()
	res.Conjecture = conj
	res.LayoutH, res.LayoutM = conj.HOrder, conj.MOrder
	return res, nil
}

// FormatResult renders a result for terminals: score, layouts, matches.
func FormatResult(in *Instance, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm: %s\nscore: %v\n", res.Algorithm, res.Score)
	if res.Conjecture != nil {
		fmt.Fprintf(&b, "H layout: %s\nM layout: %s\n",
			res.Conjecture.FormatLayout(in, SpeciesH, matchedCount(in, res, SpeciesH)),
			res.Conjecture.FormatLayout(in, SpeciesM, matchedCount(in, res, SpeciesM)))
		fmt.Fprintf(&b, "matches: %d\n", len(res.Solution.Matches))
		for _, mt := range res.Solution.Matches {
			rev := ""
			if mt.Rev {
				rev = " (reversed)"
			}
			fmt.Fprintf(&b, "  %v ~ %v%s score %v\n", mt.HSite, mt.MSite, rev, mt.Score)
		}
	} else {
		fmt.Fprintf(&b, "H layout: %v\nM layout: %v\n", res.LayoutH, res.LayoutM)
	}
	return b.String()
}

func matchedCount(in *Instance, res *Result, sp Species) int {
	seen := map[int]bool{}
	for _, mt := range res.Solution.Matches {
		seen[mt.Side(sp).Frag] = true
	}
	return len(seen)
}

// RecoveryAccuracy scores a result's inferred layout for one species
// against a generated workload's ground truth: pairwise contig order and
// orientation accuracy, modulo the unobservable whole-genome flip. Only
// contigs that participate in matches are evaluated.
func RecoveryAccuracy(res *Result, sp Species) Accuracy {
	if res.Solution == nil || res.Conjecture == nil {
		return Accuracy{}
	}
	layout := res.Conjecture.HOrder
	if sp == SpeciesM {
		layout = res.Conjecture.MOrder
	}
	seen := map[int]bool{}
	for _, mt := range res.Solution.Matches {
		seen[mt.Side(sp).Frag] = true
	}
	return gen.LayoutAccuracy(layout, len(seen))
}
