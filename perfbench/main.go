// Command perfbench is the repository benchmark: two workloads that drive
// the solver library and its batch pool end to end, check every output,
// and print one JSON result line. An untraced run (-trace 0) reports the
// end-to-end metrics; a traced run (-trace 1) calls each layer's public
// functions one by one on the same inputs, records a span around every
// call, drives the serving layer (a real csrserve process for
// batch-improve), and reports the per-layer metrics.
//
// Run it through run.sh, which builds this program and csrserve from the
// checkout's source:
//
//	bash perfbench/run.sh --workload batch-improve --seed 1 --seconds 45 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span files and scratch state
	csrserve string // csrserve binary built from this checkout
}

// run collects a workload's report and its failed output checks.
type run struct {
	config
	report
	checkFailures []string
}

// check records a failed output check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

// timeUp reports whether a timed loop that has taken n samples since
// started may stop: the run's seconds have passed and the percentile rule
// has its samples, or the hard cap that keeps a run inside its time limit
// has been reached.
func (r *run) timeUp(started time.Time, n int) bool {
	el := time.Since(started).Seconds()
	return (el >= r.seconds && n >= minSamples) || el >= hardCapSeconds
}

// hardCapSeconds bounds any one timed loop.
const hardCapSeconds = 120

var workloads = map[string]func(*run) error{
	"batch-improve": runBatch,
	"genome-seeded": runGenome,
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload: batch-improve or genome-seeded")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 45, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.out, "out", ".bench_build/perfbench", "directory for span files")
	flag.StringVar(&c.csrserve, "csrserve", "", "csrserve binary (traced batch-improve)")
	flag.Parse()
	c.trace = traceFlag == 1
	fn, ok := workloads[c.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload batch-improve|genome-seeded --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{config: c}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	if miss := r.missing(want); len(miss) > 0 {
		r.check(false, "metrics not reported: %s", strings.Join(miss, ", "))
	}
	r.Correct = len(r.checkFailures) == 0
	for _, f := range r.checkFailures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	line, err := json.Marshal(&r.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// mode is the solve configuration of the run's workload: batch-improve
// solves classic float64, genome-seeded float64 with seeded candidates.
func (r *run) mode() mode {
	return mode{seeded: r.workload == "genome-seeded"}
}

// spanPath is where a traced run writes its spans.
func (r *run) spanPath() (string, error) {
	dir := filepath.Join(r.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed)), nil
}
