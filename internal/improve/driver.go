package improve

import (
	"context"
	"fmt"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/improve/enum"
	"repro/internal/onecsr"
	"repro/internal/score"
	"repro/internal/seed"
	"repro/internal/symbol"
)

// Methods selects which improvement methods the driver uses.
type Methods int

const (
	// FullOnly runs I1 only — the Full_Improve algorithm (Theorem 4).
	FullOnly Methods = 1 << iota
	// BorderOnly runs I2 and I3 — the Border_Improve algorithm (Theorem 5).
	BorderOnly
	// AllMethods runs I1, I2 and I3 — the CSR_Improve algorithm (Theorem 6).
	AllMethods = FullOnly | BorderOnly
)

// Options configures the iterative-improvement driver.
type Options struct {
	// Methods defaults to AllMethods.
	Methods Methods
	// Eps tunes the §4.1 scaling threshold: gains must exceed
	// Eps·X/k where X is the 4-approximate score and k the match bound
	// (the paper's X/k² with k replaced by k/Eps; Eps=0 accepts every
	// positive gain — exact local optimum, no polynomial bound). At any Eps
	// an accepted attempt must also strictly raise the solution's total
	// summed in fixed match-ID order, so float noise never cycles the loop.
	Eps float64
	// Seed is the starting solution; nil starts empty (as in the paper).
	Seed *core.Solution
	// SeedWithFourApprox starts from the Corollary 1 solution instead of
	// the empty set; never worse, often much faster to converge.
	SeedWithFourApprox bool
	// MaxRounds caps the improvement iterations (safety net; 0 = 4k²+k).
	MaxRounds int
	// Ctx cancels the solve; nil means never. Cancellation is sub-round:
	// the driver checks between rounds, between candidate simulations and
	// inside TPA batches, and returns the context's error with the live
	// state at the last accepted attempt — a simulation cut short unwinds
	// its trail, and an accepted attempt is always applied atomically.
	Ctx context.Context
	// Quantize applies the literal §4.1 scaling: run the search under a
	// scorer truncated to multiples of X/k² (X the 4-approximate score, k
	// the match bound), then re-score the result under the true σ. Every
	// accepted improvement then gains at least one quantum, limiting
	// improvements to 4k² without any gain threshold.
	Quantize bool
	// IntScore runs the search under the integer-quantized σ matrix
	// (score.CompiledInt): every alignment kernel then sums whole units
	// of σ, and the final solution is re-scored under the true σ at the
	// boundary. Search decisions differ from float
	// mode by at most the quantization bound (zero when σ is unit-quantized,
	// e.g. integral tables — see score.CompiledInt.Exact). Combines with
	// Quantize: the scaled shadow scorer is then quantized exactly, since
	// its values are multiples of the scaling unit by construction.
	IntScore bool
	// Seeded replaces the positive-σ pair mask (seed.Mask) with the
	// minimizer seed-and-chain pipeline (seed.Candidates, default params):
	// only fragment pairs whose words share σ-translated minimizer chains
	// enter the enumeration, I3 rewiring, and TPA loops. The unseeded mask
	// admits every pair with a positive σ cell, which is provably lossless:
	// its accepted sequence is bit-identical to all-pairs enumeration
	// (TestMaskMatchesDenseUniverse). Seeding trades a little score for a
	// much smaller universe on genome-scale instances.
	Seeded bool
	// Checkpoint, when set, observes every accepted candidate in acceptance
	// order — the driver's crash-recovery tap. Because the live state evolves
	// only through accepted attempts (every simulation rolls its edits back)
	// and each attempt replays deterministically, the accepted-candidate log IS
	// the solve's recovery state: persist it and a crashed solve resumes via
	// Resume, bit-identical. A sink error aborts the solve — the durability
	// contract forbids running ahead of the log. Candidates fast-forwarded
	// from Resume are not re-reported (they are already in the caller's log).
	Checkpoint CheckpointSink
	// Resume fast-forwards a fresh state through a previously checkpointed
	// accepted-candidate log before the round loop runs: each op is applied
	// to the live state exactly as an accepted attempt would be, Stats.Rounds
	// and Stats.Accepted start at len(Resume), and the loop continues from
	// there. The continued run's accepted sequence and final solution are
	// bit-identical to an uninterrupted solve whose first len(Resume) accepts
	// were these ops (TestCheckpointResumeBitIdentity). Ops must come from a
	// solve of the same instance under the same options.
	Resume []enum.Cand
	// Partial degrades cancellation gracefully: when Ctx fires mid-solve,
	// the driver stops at the next sub-round check and returns the last
	// accepted state as a valid solution with Stats.Partial set, instead of
	// the context error. The result is exactly what an uncanceled run would
	// have produced after the same accepted attempts — consistent, and (in
	// the quantized modes) re-scored under the true σ.
	Partial bool
	// minGain is an internal acceptance floor. The quantized path sets it
	// to half a quantum: every true gain is a whole multiple of the
	// quantum, so the floor only rejects floating-point noise around zero.
	minGain float64
	// CheckInvariants validates consistency after every accepted attempt
	// (slow; for tests).
	CheckInvariants bool
	// onAccept, when set, observes every accepted attempt in order, Resume
	// replays included (test hook).
	onAccept func(candKey)
	// engine, when set, replaces the lazy selection loop (improveLazy) after
	// all setup — the shadow Quantize/IntScore recursions, seeding, and
	// Resume — has run. Test hook for the full re-evaluation oracle.
	engine engineFunc
	// universe, when set, supplies the pair universe at the innermost
	// solve in place of seed.Mask (and of seeding). Test hook for the
	// all-pairs parity oracle.
	universe func(in *core.Instance) [][2]int32
}

// engineFunc is the signature of the driver's round loop: it runs rounds
// on st from stats.Rounds up to maxRounds, accepting the best candidate
// above floor each round through replayAccept. Every round runs on the
// calling goroutine.
type engineFunc func(opt Options, st *state, en *enum.Enumerator,
	canceled func() error, maxRounds int, floor float64, stats *Stats) error

// CheckpointSink receives every accepted candidate of an improvement run in
// acceptance order (see Options.Checkpoint). encoding.CheckpointWriter is
// the durable implementation; tests use in-memory collectors.
type CheckpointSink interface {
	Accept(c enum.Cand) error
}

// Stats reports how an improvement run went.
type Stats struct {
	Rounds int
	// Resumed counts the checkpointed ops fast-forwarded through the live
	// state before the round loop ran (len(Options.Resume)); those accepts
	// are included in Rounds and Accepted.
	Resumed int
	// Evaluated counts candidate gains computed by simulation, summed over
	// rounds: every candidate in the first round, then only the stale
	// frontier — candidates the last accepted attempt dirtied or created.
	Evaluated int
	Accepted  int
	Threshold float64
	Final     float64
	// Popped, Resimulated and Skipped report the selection engine's heap
	// traffic (selection.go). Popped counts heap extractions: the stale
	// frontier pulled for re-simulation each round plus the current-top
	// inspection that ends the round. Resimulated counts frontier slots
	// that already had a recorded gain — the candidates invalidated by
	// accepted attempts (first-time simulations of newly enumerated
	// candidates are excluded). Skipped counts live candidates carried
	// through a selection untouched: cached gains that needed no
	// re-simulation.
	Popped      int
	Resimulated int
	Skipped     int
	// EnumRefreshed and EnumReused count the enumeration subsystem's
	// piece-cache traffic across all rounds: pieces recomputed vs served
	// from cache.
	EnumRefreshed int
	EnumReused    int
	// Partial reports that the run was cut short by its context under
	// Options.Partial: the returned solution is the last accepted state,
	// not a local optimum.
	Partial bool
	// SeedPairs and SeedAnchors report the seeded candidate universe
	// (Options.Seeded): pairs admitted out of nh×nm possible, and minimizer
	// anchors matched. Zero on unseeded solves, whose universe is the
	// positive-σ mask.
	SeedPairs   int
	SeedAnchors int
}

// Improve runs the selected iterative-improvement algorithm to a local
// optimum (all attempts gain ≤ threshold) and returns the resulting
// consistent solution.
func Improve(in *core.Instance, opt Options) (*core.Solution, Stats, error) {
	var stats Stats
	if err := in.Validate(); err != nil {
		return nil, stats, err
	}
	// The memo keys pack fragment indices into 20 bits and site bounds into
	// 21 (incremental.go: mkAlignKey/mkPlaceKey); reject instances beyond
	// those ranges up front — a silent packed-key collision would corrupt
	// cached scores. Real instances are orders of magnitude smaller.
	const maxPackFrags, maxPackLen = 1 << 20, 1 << 21
	for _, sp := range []core.Species{core.SpeciesH, core.SpeciesM} {
		if n := in.NumFrags(sp); n >= maxPackFrags {
			return nil, stats, fmt.Errorf("improve: %d %v fragments exceed the %d supported", n, sp, maxPackFrags-1)
		}
		for i := 0; i < in.NumFrags(sp); i++ {
			if l := in.Frag(sp, i).Len(); l >= maxPackLen {
				return nil, stats, fmt.Errorf("improve: fragment %v/%d length %d exceeds the %d supported", sp, i, l, maxPackLen-1)
			}
		}
	}
	if opt.Methods == 0 {
		opt.Methods = AllMethods
	}
	// Integer-quantized search: swap σ for its quantized matrix, run the whole
	// algorithm under it, and re-score the result under the true σ at the
	// end — the same shadow-instance shape as the Quantize path below. When
	// Quantize is also set it runs first (outer), so the scaled scorer is
	// what gets quantized to integers; its values are unit multiples, making
	// the integer representation exact.
	if opt.IntScore && !opt.Quantize {
		ci := score.Compile(in.Sigma, in.MaxSymbolID()).Int()
		shadow := *in
		shadow.Sigma = ci
		iopt := opt
		iopt.IntScore = false
		if iopt.Seed != nil {
			iopt.Seed = rescore(&shadow, iopt.Seed)
		}
		sol, istats, err := Improve(&shadow, iopt)
		if err != nil {
			return nil, istats, err
		}
		// The inner call built sol from its own state: re-score it in place.
		RescoreInPlace(in, sol, score.Prepare(in.Sigma, in.MaxSymbolID()))
		istats.Final = sol.Score()
		return sol, istats, nil
	}
	// Prepare σ once for the whole solve: the baseline 4-approximation and
	// the driver state then share one compiled matrix (and its cached
	// transpose) instead of each compiling their own. Scoring is
	// bit-identical — a compiled matrix returns the exact float64 cells of
	// its base scorer — and batch-pooled instances, whose Sigma is already
	// the pool's cached matrix, pass through untouched.
	prepared := *in
	prepared.Sigma = score.Prepare(in.Sigma, in.MaxSymbolID())
	in = &prepared
	seedSol := opt.Seed
	var baseline float64
	if fa, err := onecsr.FourApprox(in); err == nil {
		baseline = fa.Score()
		if opt.SeedWithFourApprox && seedSol == nil {
			seedSol = fa
		}
	}
	k := in.MaxMatches()
	if k < 1 {
		k = 1
	}
	if opt.Eps > 0 && baseline > 0 {
		stats.Threshold = opt.Eps * baseline / float64(k)
	}
	if opt.Quantize && baseline > 0 {
		unit := baseline / float64(k*k)
		shadow := *in
		shadow.Sigma = score.Quantized{Base: in.Sigma, Unit: unit}
		// Solve under truncated scores (the seed's caches must be
		// re-truncated), then re-score the result under the true σ.
		qopt := opt
		qopt.Quantize = false
		qopt.minGain = unit / 2
		if qopt.Seed == nil && seedSol != nil {
			qopt.Seed = seedSol
		}
		qopt.SeedWithFourApprox = false
		if qopt.Seed != nil {
			qopt.Seed = rescore(&shadow, qopt.Seed)
		}
		sol, qstats, err := Improve(&shadow, qopt)
		if err != nil {
			return nil, qstats, err
		}
		// The inner call built sol from its own state: re-score it in place.
		RescoreInPlace(in, sol, score.Prepare(in.Sigma, in.MaxSymbolID()))
		qstats.Final = sol.Score()
		qstats.Threshold = unit
		return sol, qstats, nil
	}
	maxRounds := opt.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*k*k + k + 16
	}

	// The solve's pair universe: the positive-σ mask, or the minimizer
	// chains on a seeded solve. Built against the prepared σ, so under the
	// shadow recursions above it masks or seeds under the scorer the search
	// actually uses.
	var pairs [][2]int32
	switch {
	case opt.universe != nil:
		pairs = opt.universe(in)
	case opt.Seeded:
		res := seed.Candidates(in, seed.DefaultParams())
		pairs = res.PairList()
		stats.SeedPairs = res.Stats.Pairs
		stats.SeedAnchors = res.Stats.Anchors
	default:
		pairs = seed.Mask(in)
	}
	st := statePool.Get().(*state)
	defer st.release()
	st.pairSet.Reset(in.NumFrags(core.SpeciesH), in.NumFrags(core.SpeciesM), pairs)
	st.reset(in, seedSol, &st.pairSet)
	if len(opt.Resume) > 0 {
		// Crash recovery: fast-forward the live state through the
		// checkpointed accepted-op log. Each op is applied exactly as
		// replayAccept applies an accepted attempt (zeroed accumulator, same
		// float addition sequence), but without a gain check — the log IS the
		// trajectory — and without re-reporting to Checkpoint, where the ops
		// already are durable. Rounds/Accepted start at the replayed count so
		// the continued loop's accounting matches the uninterrupted run's.
		// Structural references are bounds-checked so a log from another
		// instance fails typed instead of corrupting state.
		for i, c := range opt.Resume {
			if c.Kind < enum.KindI1 || c.Kind > enum.KindI3 ||
				(c.F.Sp != core.SpeciesH && c.F.Sp != core.SpeciesM) ||
				(c.G.Sp != core.SpeciesH && c.G.Sp != core.SpeciesM) ||
				c.F.Idx < 0 || c.F.Idx >= in.NumFrags(c.F.Sp) ||
				c.G.Idx < 0 || c.G.Idx >= in.NumFrags(c.G.Sp) {
				return nil, stats, fmt.Errorf("improve: resume op %d (%s) does not fit this instance", i, c)
			}
			st.delta = 0
			runCand(st, c)
			stats.Accepted++
			if opt.onAccept != nil {
				opt.onAccept(c)
			}
		}
		stats.Resumed = len(opt.Resume)
		stats.Rounds = len(opt.Resume)
	}
	canceled := func() error {
		if opt.Ctx == nil {
			return nil
		}
		return opt.Ctx.Err()
	}
	// Enumeration runs incrementally against the live version counters.
	en := &st.en
	en.Reset(opt.Methods&FullOnly != 0, opt.Methods&BorderOnly != 0, st.pairs)
	floor := max(stats.Threshold, opt.minGain)
	engine := improveLazy
	if opt.engine != nil {
		engine = opt.engine
	}
	if err := engine(opt, st, en, canceled, maxRounds, floor, &stats); err != nil {
		return nil, stats, err
	}
	es := en.Stats()
	stats.EnumRefreshed, stats.EnumReused = es.Refreshed, es.Reused
	sol := st.solution()
	stats.Final = sol.Score()
	return sol, stats, nil
}

// replayAccept applies an accepted candidate on the live state and verifies
// the replayed gain equals the simulated one bit for bit (the engine resets
// st.bumpLog beforehand to collect the replay's dirty fragment set). The
// replay runs with a zeroed accumulator, mirroring the simulation's float
// addition sequence exactly, so any difference is a determinism bug.
func replayAccept(st *state, opt *Options, stats *Stats, key candKey, want float64) error {
	st.delta = 0
	got := runCand(st, key)
	stats.Accepted++
	if opt.onAccept != nil {
		opt.onAccept(key)
	}
	if opt.Checkpoint != nil {
		if err := opt.Checkpoint.Accept(key); err != nil {
			// The solve may not run ahead of its durable log: a sink failure
			// (disk full, injected torn write) aborts like a crash would.
			return fmt.Errorf("improve: checkpoint accept %s: %w", key, err)
		}
	}
	if got != want {
		return fmt.Errorf("improve: %s replayed gain %v != simulated %v", key, got, want)
	}
	if opt.CheckInvariants {
		sol := st.solution()
		if err := sol.Validate(st.in); err != nil {
			return fmt.Errorf("improve: after %s: %w", key, err)
		}
		if _, err := sol.BuildConjecture(st.in); err != nil {
			return fmt.Errorf("improve: after %s: inconsistent solution: %w", key, err)
		}
	}
	return nil
}

// rescore refreshes every cached match score under the instance's σ,
// prepared once for the pass (a pre-quantized σ stays on the integer
// kernels).
func rescore(in *core.Instance, sol *core.Solution) *core.Solution {
	return Rescore(in, sol, score.Prepare(in.Sigma, in.MaxSymbolID()))
}

// Rescore returns a copy of the solution with every cached match score
// recomputed against the instance's words under the given scorer — the
// shared re-scoring boundary of the quantized modes (callers pass the exact
// dense σ to dequantize a search result, or a shadow scorer to re-truncate a
// seed).
func Rescore(in *core.Instance, sol *core.Solution, sc score.Scorer) *core.Solution {
	out := sol.Clone()
	RescoreInPlace(in, out, sc)
	return out
}

// RescoreInPlace is Rescore mutating sol directly — the allocation-free form
// for solutions the caller owns outright (a solver's freshly built result,
// never a user-provided seed).
func RescoreInPlace(in *core.Instance, sol *core.Solution, sc score.Scorer) {
	s := align.NewScratch()
	defer s.Release()
	var ori symbol.Word // the oriented M site word, reused across matches
	for i := range sol.Matches {
		mt := &sol.Matches[i]
		ori = in.SiteWord(mt.MSite).AppendOrient(ori[:0], mt.Rev)
		mt.Score = s.Score(in.SiteWord(mt.HSite), ori, sc)
	}
}
