// Command benchdiff compares two csrbench -json trajectory files and
// enforces the CI benchmark gate: it prints a per-algorithm delta table and
// exits non-zero when any algorithm's wall time (or allocation count or
// allocated bytes) regressed beyond the configured threshold.
//
// Usage:
//
//	benchdiff [-max-wall 25] [-max-allocs 50] BENCH_BASELINE.json BENCH_PR.json
//
// Records are matched by (algorithm, mode, seed, regions, instances) — the
// float64 and int32-quantized score paths gate independently. Baseline
// records below the noise floors (-floor-ms, -floor-allocs) are reported
// but never gated — sub-millisecond timings on shared runners are jitter,
// not signal. A record above the allocation floor gates its allocated
// bytes beside its allocation count, at the same -max-allocs threshold;
// csrbench reports the minimum of both over its repeats, so the gated
// figures are those of a solve that reused its pooled workspaces. Improve rows additionally gate on the lazy selection
// engine's resimulated count (-max-resim, deterministic per workload, so
// no noise floor — just a size floor), catching staleness-tracking rot
// that wall-time jitter would hide. With -max-int-ratio set, the current
// run's batch csr-improve rows are additionally gated on the
// int32-vs-float64 wall ratio — a same-run comparison immune to runner
// drift, protecting the quantized kernels' payoff. A record present in the baseline but
// missing from the PR file fails the gate (an algorithm silently dropped
// from the sweep is itself a regression); new PR-only records are reported
// as additions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// record mirrors csrbench's algResult; unknown fields are ignored so the
// two tools can evolve independently.
type record struct {
	Algorithm string  `json:"algorithm"`
	Mode      string  `json:"mode"` // "" = float64 path, "int32" = quantized kernels
	Seed      int64   `json:"seed"`
	Regions   int     `json:"regions"`
	Instances int     `json:"instances"`
	WallMS    float64 `json:"wall_ms"`
	Allocs    uint64  `json:"allocs"`
	Bytes     uint64  `json:"bytes"`
	Score     float64 `json:"score"`
	// Evaluated and Resimulated are the improve driver's work counters
	// (deterministic, unlike wall time): gains obtained per round and stale
	// gains re-simulated by the lazy selection engine. Improve rows — rows
	// whose baseline carries these counters — are gated on a resimulated
	// regression, which catches staleness-tracking rot (over-invalidation)
	// that runner noise would hide in the wall gate.
	Evaluated   int    `json:"evaluated,omitempty"`
	Resimulated int    `json:"resimulated,omitempty"`
	Error       string `json:"error,omitempty"`
}

type key struct {
	alg       string
	mode      string
	seed      int64
	regions   int
	instances int
}

// label renders the algorithm with its scoring mode, the table's first
// column.
func (k key) label() string {
	if k.mode != "" {
		return k.alg + "/" + k.mode
	}
	return k.alg
}

func (k key) String() string {
	s := fmt.Sprintf("%s seed=%d regions=%d", k.label(), k.seed, k.regions)
	if k.instances > 1 {
		s += fmt.Sprintf(" instances=%d", k.instances)
	}
	return s
}

func load(path string) (map[key]record, []key, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	recs := map[key]record{}
	var order []key
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		if r.Instances == 0 {
			r.Instances = 1 // records from before the batch port
		}
		k := key{r.Algorithm, r.Mode, r.Seed, r.Regions, r.Instances}
		if _, dup := recs[k]; !dup {
			order = append(order, k)
		}
		recs[k] = r // last record wins on duplicates
	}
	return recs, order, sc.Err()
}

// pct returns the relative change base→cur in percent.
func pct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

func main() {
	var (
		maxWall     = flag.Float64("max-wall", 25, "max wall-time regression percent before failing (0 disables)")
		maxAllocs   = flag.Float64("max-allocs", 50, "max allocation-count and allocated-bytes regression percent before failing (0 disables)")
		maxResim    = flag.Float64("max-resim", 25, "max resimulated-count regression percent for improve rows before failing (0 disables)")
		floorMS     = flag.Float64("floor-ms", 5, "baseline wall floor in ms; faster records are never gated")
		floorAllocs = flag.Uint64("floor-allocs", 150, "baseline allocation floor; smaller records are never alloc- or bytes-gated")
		floorResim  = flag.Int("floor-resim", 50, "baseline resimulated floor; smaller records are never resim-gated")
		maxIntRatio = flag.Float64("max-int-ratio", 0, "max int32/float64 wall ratio for batch csr-improve rows of the CURRENT run (0 disables)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] BASELINE.json CURRENT.json")
		os.Exit(2)
	}
	base, baseOrder, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	cur, curOrder, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}

	var failures []string
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ALGORITHM\tINST\tWALL base→cur (ms)\tΔWALL\tALLOCS base→cur\tΔALLOCS\tNOTE")
	for _, k := range baseOrder {
		b := base[k]
		c, ok := cur[k]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", k))
			fmt.Fprintf(tw, "%s\t%d\t%.1f → —\t—\t—\t—\tMISSING\n", k.label(), k.instances, b.WallMS)
			continue
		}
		if c.Error != "" {
			failures = append(failures, fmt.Sprintf("%s: current run errored: %s", k, c.Error))
			fmt.Fprintf(tw, "%s\t%d\t—\t—\t—\t—\tERROR\n", k.label(), k.instances)
			continue
		}
		dWall := pct(b.WallMS, c.WallMS)
		dAllocs := pct(float64(b.Allocs), float64(c.Allocs))
		var notes []string
		if b.WallMS < *floorMS {
			notes = append(notes, "below wall floor")
		} else if *maxWall > 0 && dWall > *maxWall {
			notes = append(notes, "WALL REGRESSION")
			failures = append(failures, fmt.Sprintf("%s: wall %.1fms → %.1fms (%+.1f%% > %.0f%%)",
				k, b.WallMS, c.WallMS, dWall, *maxWall))
		}
		if b.Allocs == 0 || b.Allocs < *floorAllocs {
			// Baselines predating alloc tracking (or tiny ones) only report.
		} else if *maxAllocs > 0 {
			if dAllocs > *maxAllocs {
				notes = append(notes, "ALLOC REGRESSION")
				failures = append(failures, fmt.Sprintf("%s: allocs %d → %d (%+.1f%% > %.0f%%)",
					k, b.Allocs, c.Allocs, dAllocs, *maxAllocs))
			}
			if dBytes := pct(float64(b.Bytes), float64(c.Bytes)); dBytes > *maxAllocs {
				notes = append(notes, "BYTES REGRESSION")
				failures = append(failures, fmt.Sprintf("%s: bytes %d → %d (%+.1f%% > %.0f%%)",
					k, b.Bytes, c.Bytes, dBytes, *maxAllocs))
			}
		}
		// Resimulated counts are deterministic per workload, so this gate has
		// no noise floor problem — only a size floor against ratio blowups on
		// tiny counts. Rows without baseline counters (non-improve
		// algorithms) are skipped.
		if b.Resimulated >= *floorResim && *maxResim > 0 {
			if dResim := pct(float64(b.Resimulated), float64(c.Resimulated)); dResim > *maxResim {
				notes = append(notes, "RESIM REGRESSION")
				failures = append(failures, fmt.Sprintf("%s: resimulated %d → %d (%+.1f%% > %.0f%%)",
					k, b.Resimulated, c.Resimulated, dResim, *maxResim))
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f → %.1f\t%+.1f%%\t%d → %d\t%+.1f%%\t%s\n",
			k.label(), k.instances, b.WallMS, c.WallMS, dWall, b.Allocs, c.Allocs, dAllocs,
			strings.Join(notes, ", "))
	}
	sort.Slice(curOrder, func(i, j int) bool { return curOrder[i].String() < curOrder[j].String() })
	for _, k := range curOrder {
		if _, ok := base[k]; !ok {
			fmt.Fprintf(tw, "%s\t%d\t— → %.1f\t—\t— → %d\t—\tNEW\n",
				k.label(), k.instances, cur[k].WallMS, cur[k].Allocs)
		}
	}
	tw.Flush()

	// Relative mode gate: within the CURRENT run, the quantized batch solve
	// must stay at the float64 path's wall. Both rows come from the same
	// runner and run, so their ratio is far more stable than either
	// absolute wall — this gate keeps int mode's cost from growing silently
	// while absolute thresholds absorb runner drift.
	// Gated rows: csr-improve at instances > 1 (the pinned batch workload;
	// single-instance rows are too close to the wall floor to ratio-gate).
	if *maxIntRatio > 0 {
		for _, k := range curOrder {
			if k.alg != "csr-improve" || k.mode != "int32" || k.instances <= 1 {
				continue
			}
			fk := k
			fk.mode = ""
			fc, ok := cur[fk]
			ic := cur[k]
			if !ok || ic.Error != "" || fc.Error != "" || fc.WallMS < *floorMS {
				continue
			}
			ratio := ic.WallMS / fc.WallMS
			fmt.Printf("int32/float64 wall ratio (%s, instances=%d): %.1f/%.1f = %.3f (max %.2f)\n",
				k.alg, k.instances, ic.WallMS, fc.WallMS, ratio, *maxIntRatio)
			if ratio > *maxIntRatio {
				failures = append(failures, fmt.Sprintf("%s: int32 wall %.1fms vs float64 %.1fms — ratio %.3f > %.2f",
					k, ic.WallMS, fc.WallMS, ratio, *maxIntRatio))
			}
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: trajectory OK")
}
