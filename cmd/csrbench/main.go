// Command csrbench runs the experiment suite of internal/experiments (E1–E8,
// E10 and E11: the paper's worked example, reductions, approximation ratios
// and fooling family, plus layout recovery) and prints its tables; -only
// runs just the named ones and rejects an unknown ID.
//
// Usage:
//
//	csrbench [-seed 1] [-only E2,E7]
//	csrbench -json [-seed 1] [-regions 60] [-instances 8] [-repeat 3] [-algs csr-improve,four-approx]
//
// With -json it instead solves synthetic workloads with every selected
// algorithm and emits machine-readable records — per-algorithm wall time,
// heap allocations/bytes, score, and improvement statistics — so the
// performance trajectory can be tracked across revisions in BENCH_*.json
// files and gated by cmd/benchdiff. -instances N solves N workloads (seeds
// seed..seed+N-1) per algorithm through the sharded batch pool
// (fragalign.SolveBatch); -repeat R reports the minimum wall/allocation
// cost over R runs, which is what CI should compare.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	fragalign "repro"
	"repro/internal/experiments"
)

// algResult is one machine-readable benchmark record. Mode distinguishes
// the solver path — "seeded" for minimizer-seeded candidates, "int32" for
// the quantized integer kernels, combinations joined with "+", empty for
// the default exact float64 path — and benchdiff matches records on
// (algorithm, mode, …) so every path is gated independently.
type algResult struct {
	Algorithm string  `json:"algorithm"`
	Mode      string  `json:"mode,omitempty"`
	Seed      int64   `json:"seed"`
	Regions   int     `json:"regions"`
	Instances int     `json:"instances"`
	WallMS    float64 `json:"wall_ms"`
	Allocs    uint64  `json:"allocs"`
	Bytes     uint64  `json:"bytes"`
	Score     float64 `json:"score"`
	Matches   int     `json:"matches,omitempty"`
	// Evaluated counts candidate gains computed by simulation, summed over
	// the batch (improve.Stats.Evaluated).
	Rounds    int `json:"rounds,omitempty"`
	Evaluated int `json:"evaluated,omitempty"`
	Accepted  int `json:"accepted,omitempty"`
	// Popped / Resimulated / Skipped aggregate the selection engine's heap
	// traffic over the batch (improve.Stats): heap extractions, stale
	// candidates re-simulated after an accepted attempt dirtied them, and
	// cached candidates carried through a selection untouched. benchdiff
	// gates improve rows on a resimulated-count regression, so
	// staleness-tracking rot is caught in CI even when wall time hides it.
	Popped      int `json:"popped,omitempty"`
	Resimulated int `json:"resimulated,omitempty"`
	Skipped     int `json:"skipped,omitempty"`
	// EnumRefreshed / EnumReused aggregate the enumeration subsystem's
	// piece-cache traffic over the batch (improve.Stats).
	EnumRefreshed int `json:"enum_refreshed,omitempty"`
	EnumReused    int `json:"enum_reused,omitempty"`
	// SeedPairs aggregates the seeded candidate universe size over the
	// batch (improve.Stats.SeedPairs); zero unless -seeded.
	SeedPairs int `json:"seed_pairs,omitempty"`
	// Recovery is the seeded/classic score ratio measured on the record's
	// own instances (see -seed-accuracy): minimizer seeding against the
	// complete positive-σ mask. Only present on the first record of a
	// -seed-accuracy run.
	Recovery float64 `json:"recovery,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// jsonOpts carries the -json benchmark configuration.
type jsonOpts struct {
	seed        int64
	regions     int
	instances   int
	repeat      int
	shards      int
	algs        string
	intMode     bool
	sharedAl    bool
	seeded      bool
	preset      string
	label       string
	seedAcc     bool
	minRecovery float64
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "experiment seed")
		only      = flag.String("only", "", "comma-separated experiment IDs (default all)")
		asJSON    = flag.Bool("json", false, "emit per-algorithm JSON records instead of tables")
		regions   = flag.Int("regions", 60, "synthetic workload size for -json")
		instances = flag.Int("instances", 1, "workloads per algorithm for -json (seeds seed..seed+n-1)")
		repeat    = flag.Int("repeat", 1, "repetitions per algorithm for -json; the minimum is reported")
		shards    = flag.Int("shards", 0, "batch-pool shards for -json (0 = GOMAXPROCS)")
		algsFlag  = flag.String("algs", "", "comma-separated algorithms for -json (default all but exact)")
		intMode   = flag.Bool("int", false, "solve under the integer-quantized σ (records carry mode=int32)")
		sharedAl  = flag.Bool("shared-alphabet", false, "generate all -json instances over one canonical alphabet/σ table (exercises the batch pool's per-alphabet cache)")
		seeded    = flag.Bool("seeded", false, "solve with minimizer-seeded sparse candidates (records carry mode=seeded)")
		preset    = flag.String("preset", "", "generate -json workloads from a named preset (genome-small, genome-large) instead of -regions")
		label     = flag.String("label", "", "override the algorithm field of -json records (trajectory row naming)")
		seedAcc   = flag.Bool("seed-accuracy", false, "also measure seeded/classic score recovery on the generated instances; adds a recovery field")
		minRec    = flag.Float64("min-recovery", 0, "with -seed-accuracy: exit non-zero when recovery falls below this ratio")
	)
	flag.Parse()
	if *asJSON {
		opts := jsonOpts{
			seed: *seed, regions: *regions, instances: *instances,
			repeat: *repeat, shards: *shards, algs: *algsFlag,
			intMode: *intMode, sharedAl: *sharedAl, seeded: *seeded, preset: *preset,
			label: *label, seedAcc: *seedAcc, minRecovery: *minRec,
		}
		if err := runJSON(opts); err != nil {
			fmt.Fprintln(os.Stderr, "csrbench:", err)
			os.Exit(1)
		}
		return
	}
	var known []string
	for _, e := range experiments.All {
		known = append(known, e.ID)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !slices.Contains(known, id) {
			fmt.Fprintf(os.Stderr, "csrbench: unknown experiment %q (known: %s)\n", id, strings.Join(known, ", "))
			os.Exit(2)
		}
		want[id] = true
	}
	for _, e := range experiments.All {
		if len(want) == 0 || want[e.ID] {
			fmt.Println(e.Run(*seed).Format())
		}
	}
}

func runJSON(o jsonOpts) error {
	seed, regions := o.seed, o.regions
	instances, repeat, shards := o.instances, o.repeat, o.shards
	algsFlag := o.algs
	if instances < 1 {
		instances = 1
	}
	if repeat < 1 {
		repeat = 1
	}
	var base fragalign.GenConfig
	if o.preset != "" {
		pc, ok := fragalign.GenPreset(o.preset, seed)
		if !ok {
			return fmt.Errorf("unknown -preset %q (have %v)", o.preset, fragalign.GenPresetNames())
		}
		base, regions = pc, pc.Regions
	} else {
		base = fragalign.DefaultGenConfig(seed)
		base.Regions = regions
		if o.sharedAl {
			base.Canonical = fragalign.NewCanonical(base)
		}
	}
	ins := make([]*fragalign.Instance, instances)
	for i := range ins {
		cfg := base
		cfg.Seed = seed + int64(i)
		ins[i] = fragalign.Generate(cfg).Instance
	}
	recovery := 0.0
	if o.seedAcc {
		var err error
		if recovery, err = measureRecovery(ins); err != nil {
			return err
		}
	}

	var algs []fragalign.Algorithm
	if algsFlag == "" {
		// Exact enumeration is factorial; exclude it from the default sweep.
		for _, a := range fragalign.Algorithms() {
			if a != fragalign.Exact {
				algs = append(algs, a)
			}
		}
	} else {
		for _, s := range strings.Split(algsFlag, ",") {
			if s = strings.TrimSpace(s); s != "" {
				algs = append(algs, fragalign.Algorithm(s))
			}
		}
	}

	var modes []string
	if o.seeded {
		modes = append(modes, "seeded")
	}
	if o.intMode {
		modes = append(modes, "int32")
	}
	mode := strings.Join(modes, "+")
	enc := json.NewEncoder(os.Stdout)
	for ai, alg := range algs {
		rec := algResult{Algorithm: string(alg), Mode: mode, Seed: seed, Regions: regions, Instances: instances}
		if o.label != "" {
			rec.Algorithm = o.label
		}
		if o.seedAcc && ai == 0 {
			rec.Recovery = recovery
		}
		// Report the minimum over the repeats: wall time and allocation
		// deltas are noisy on shared runners, and the minimum is the
		// stablest estimator of the work's true cost.
		for r := 0; r < repeat; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			results, err := fragalign.SolveBatch(context.Background(), ins, alg,
				fragalign.WithEps(0.05), fragalign.WithFourApproxSeed(true),
				fragalign.WithShards(shards), fragalign.WithIntScore(o.intMode),
				fragalign.WithSeededCandidates(o.seeded))
			wallMS := float64(time.Since(start).Microseconds()) / 1000
			runtime.ReadMemStats(&m1)
			if err != nil {
				rec.Error = err.Error()
				break
			}
			if r == 0 || wallMS < rec.WallMS {
				rec.WallMS = wallMS
			}
			if allocs := m1.Mallocs - m0.Mallocs; r == 0 || allocs < rec.Allocs {
				rec.Allocs = allocs
			}
			if bytes := m1.TotalAlloc - m0.TotalAlloc; r == 0 || bytes < rec.Bytes {
				rec.Bytes = bytes
			}
			if r > 0 {
				continue // scores and stats are deterministic across repeats
			}
			rec.Score, rec.Matches = 0, 0
			for _, res := range results {
				rec.Score += res.Score
				if res.Solution != nil {
					rec.Matches += len(res.Solution.Matches)
				}
				if res.Stats != nil {
					rec.Rounds += res.Stats.Rounds
					rec.Evaluated += res.Stats.Evaluated
					rec.Accepted += res.Stats.Accepted
					rec.Popped += res.Stats.Popped
					rec.Resimulated += res.Stats.Resimulated
					rec.Skipped += res.Stats.Skipped
					rec.EnumRefreshed += res.Stats.EnumRefreshed
					rec.EnumReused += res.Stats.EnumReused
					rec.SeedPairs += res.Stats.SeedPairs
				}
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if o.seedAcc && o.minRecovery > 0 && recovery < o.minRecovery {
		return fmt.Errorf("seeded recovery %.4f below -min-recovery %.4f", recovery, o.minRecovery)
	}
	return nil
}

// measureRecovery solves the row's instances twice — over the classic
// positive-σ mask universe, which loses nothing against all-pairs
// enumeration, and minimizer-seeded — and returns the seeded/classic ratio
// of the summed scores: a per-run guard that the seeding pipeline still
// recovers the solutions the complete universe finds.
func measureRecovery(ins []*fragalign.Instance) (float64, error) {
	common := []fragalign.Option{
		fragalign.WithEps(0.05), fragalign.WithFourApproxSeed(true),
	}
	var classic, seeded float64
	for _, in := range ins {
		c, err := fragalign.Solve(in, fragalign.CSRImprove, common...)
		if err != nil {
			return 0, fmt.Errorf("recovery classic solve: %w", err)
		}
		s, err := fragalign.Solve(in, fragalign.CSRImprove,
			append(common, fragalign.WithSeededCandidates(true))...)
		if err != nil {
			return 0, fmt.Errorf("recovery seeded solve: %w", err)
		}
		classic, seeded = classic+c.Score, seeded+s.Score
	}
	if classic == 0 {
		return 1, nil
	}
	return seeded / classic, nil
}
