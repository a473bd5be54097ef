package fragalign

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/encoding"
)

// TestCLIRoundTrip exercises the command-line tools end to end: generate a
// synthetic instance with csrgen, solve it with csrsolve, and check the
// report. Skipped when the go tool is unavailable.
func TestCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	dir := t.TempDir()
	instance := filepath.Join(dir, "inst.csr")

	genCmd := exec.Command("go", "run", "./cmd/csrgen",
		"-seed", "5", "-regions", "30", "-out", instance)
	if out, err := genCmd.CombinedOutput(); err != nil {
		t.Fatalf("csrgen: %v\n%s", err, out)
	}
	data, err := os.ReadFile(instance)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "H h0") {
		t.Fatalf("generated instance lacks contigs:\n%s", data)
	}

	solveCmd := exec.Command("go", "run", "./cmd/csrsolve",
		"-algo", "csr-improve", instance)
	out, err := solveCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("csrsolve: %v\n%s", err, out)
	}
	for _, want := range []string{"algorithm: csr-improve", "score:", "H layout:"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("csrsolve output missing %q:\n%s", want, out)
		}
	}

	listCmd := exec.Command("go", "run", "./cmd/csrsolve", "-list")
	out, err = listCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("csrsolve -list: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "csr-improve") || !strings.Contains(string(out), "exact") {
		t.Fatalf("-list output:\n%s", out)
	}
}

// TestCLIBenchSingleTable checks csrbench's experiment filter: -only runs
// just the named table and rejects an unknown ID.
func TestCLIBenchSingleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	cmd := exec.Command("go", "run", "./cmd/csrbench", "-only", "E1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("csrbench: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "E1") || strings.Contains(s, "E2 —") {
		t.Fatalf("filter failed:\n%s", s)
	}
	if !strings.Contains(s, "11.00") {
		t.Fatalf("E1 table missing the optimum:\n%s", s)
	}
	// An unknown ID (E9 no longer exists) fails and names the known IDs.
	out, err = exec.Command("go", "run", "./cmd/csrbench", "-only", "E9").CombinedOutput()
	if err == nil {
		t.Fatalf("csrbench -only E9 succeeded:\n%s", out)
	}
	if s := string(out); !strings.Contains(s, `unknown experiment "E9"`) || !strings.Contains(s, "E1, E2") || strings.Contains(s, " — ") {
		t.Fatalf("csrbench -only E9:\n%s", s)
	}
}

// TestCLIBatchPipeline exercises the batch toolchain end to end: csrgen
// emits a JSONL stream, csrbatch solves it through the sharded pool, and
// the output preserves submission order.
func TestCLIBatchPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	dir := t.TempDir()
	stream := filepath.Join(dir, "batch.jsonl")

	genCmd := exec.Command("go", "run", "./cmd/csrgen",
		"-seed", "5", "-regions", "30", "-count", "4", "-format", "jsonl", "-out", stream)
	if out, err := genCmd.CombinedOutput(); err != nil {
		t.Fatalf("csrgen: %v\n%s", err, out)
	}

	batchCmd := exec.Command("go", "run", "./cmd/csrbatch",
		"-algo", "csr-improve", "-shards", "2", stream)
	out, err := batchCmd.Output()
	if err != nil {
		t.Fatalf("csrbatch: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 result lines, got %d:\n%s", len(lines), out)
	}
	for i, line := range lines {
		if !strings.Contains(line, `"index":`+strconv.Itoa(i)+",") {
			t.Fatalf("line %d out of order: %s", i, line)
		}
		if !strings.Contains(line, `"name":"w`) || !strings.Contains(line, `"score":`) {
			t.Fatalf("line %d malformed: %s", i, line)
		}
	}
}

// TestCLIBatchUnordered exercises the completion-order streaming mode: the
// output must contain one record per instance with the submission indices
// forming a permutation, readable through encoding.ReadJSONLResults.
func TestCLIBatchUnordered(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	dir := t.TempDir()
	stream := filepath.Join(dir, "batch.jsonl")

	genCmd := exec.Command("go", "run", "./cmd/csrgen",
		"-seed", "11", "-regions", "30", "-count", "5", "-format", "jsonl", "-out", stream)
	if out, err := genCmd.CombinedOutput(); err != nil {
		t.Fatalf("csrgen: %v\n%s", err, out)
	}

	batchCmd := exec.Command("go", "run", "./cmd/csrbatch",
		"-algo", "csr-improve", "-shards", "2", "-unordered", stream)
	out, err := batchCmd.Output()
	if err != nil {
		t.Fatalf("csrbatch -unordered: %v", err)
	}
	seen := map[int]bool{}
	if err := encoding.ReadJSONLResults(strings.NewReader(string(out)), func(r encoding.ResultRecord) error {
		if r.Error != "" {
			t.Fatalf("record %d failed: %s", r.Index, r.Error)
		}
		if seen[r.Index] {
			t.Fatalf("duplicate index %d", r.Index)
		}
		seen[r.Index] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !seen[i] {
			t.Fatalf("missing index %d in unordered output:\n%s", i, out)
		}
	}
}

// TestCLIBatchReplay exercises the -results-from replay mode: a stored
// unordered result stream must replay through the ordered sink as exactly
// the records of the original run resequenced by submission index, and
// through the unordered sink byte-identical to the archive — all without
// re-solving anything.
func TestCLIBatchReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	dir := t.TempDir()
	stream := filepath.Join(dir, "batch.jsonl")
	stored := filepath.Join(dir, "results.jsonl")

	genCmd := exec.Command("go", "run", "./cmd/csrgen",
		"-seed", "13", "-regions", "30", "-count", "5", "-format", "jsonl", "-out", stream)
	if out, err := genCmd.CombinedOutput(); err != nil {
		t.Fatalf("csrgen: %v\n%s", err, out)
	}
	solveCmd := exec.Command("go", "run", "./cmd/csrbatch",
		"-algo", "csr-improve", "-shards", "2", "-unordered", stream)
	archived, err := solveCmd.Output()
	if err != nil {
		t.Fatalf("csrbatch -unordered: %v", err)
	}
	if err := os.WriteFile(stored, archived, 0o644); err != nil {
		t.Fatal(err)
	}

	ordered, err := exec.Command("go", "run", "./cmd/csrbatch", "-results-from", stored).Output()
	if err != nil {
		t.Fatalf("csrbatch -results-from: %v", err)
	}
	var idx []int
	records := map[int]encoding.ResultRecord{}
	if err := encoding.ReadJSONLResults(strings.NewReader(string(ordered)), func(r encoding.ResultRecord) error {
		idx = append(idx, r.Index)
		records[r.Index] = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(idx) != 5 || !sort.IntsAreSorted(idx) {
		t.Fatalf("ordered replay emitted indices %v, want 0..4 ascending", idx)
	}
	// The replayed records must carry the archived payloads untouched.
	if err := encoding.ReadJSONLResults(strings.NewReader(string(archived)), func(r encoding.ResultRecord) error {
		if got := records[r.Index]; got != r {
			t.Fatalf("record %d mutated in replay: %+v vs %+v", r.Index, got, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	passthrough, err := exec.Command("go", "run", "./cmd/csrbatch", "-results-from", stored, "-unordered").Output()
	if err != nil {
		t.Fatalf("csrbatch -results-from -unordered: %v", err)
	}
	if string(passthrough) != string(archived) {
		t.Fatalf("unordered replay is not byte-identical to the archive:\n%s\nvs\n%s", passthrough, archived)
	}
}

// TestCLIBenchdiff runs csrbench -json and checks benchdiff's gate logic
// in both directions: identical trajectories pass, an injected wall-time
// regression fails.
func TestCLIBenchdiff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")

	benchCmd := exec.Command("go", "run", "./cmd/csrbench",
		"-json", "-regions", "30", "-algs", "csr-improve,greedy")
	out, err := benchCmd.Output()
	if err != nil {
		t.Fatalf("csrbench -json: %v", err)
	}
	if err := os.WriteFile(baseline, out, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"wall_ms":`, `"allocs":`, `"bytes":`, `"instances":`} {
		if !strings.Contains(string(out), field) {
			t.Fatalf("csrbench record missing %s:\n%s", field, out)
		}
	}

	diffCmd := exec.Command("go", "run", "./cmd/benchdiff", baseline, baseline)
	if out, err := diffCmd.CombinedOutput(); err != nil || !strings.Contains(string(out), "trajectory OK") {
		t.Fatalf("benchdiff self-compare: %v\n%s", err, out)
	}

	// Inflate every wall time 10x and shrink the floor so the gate trips.
	regressed := filepath.Join(dir, "regressed.json")
	var inflated strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad csrbench record %q: %v", line, err)
		}
		rec["wall_ms"] = rec["wall_ms"].(float64) * 10
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		inflated.Write(data)
		inflated.WriteByte('\n')
	}
	if err := os.WriteFile(regressed, []byte(inflated.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	failCmd := exec.Command("go", "run", "./cmd/benchdiff", "-floor-ms", "0.0001", baseline, regressed)
	out2, err := failCmd.CombinedOutput()
	if err == nil {
		t.Fatalf("benchdiff accepted a 10x regression:\n%s", out2)
	}
	if !strings.Contains(string(out2), "WALL REGRESSION") {
		t.Fatalf("missing regression marker:\n%s", out2)
	}
}
