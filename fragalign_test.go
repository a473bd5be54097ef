package fragalign

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestBuilderAndSolvePaperExample(t *testing.T) {
	b := NewBuilder("paper")
	b.FragmentH("h1", "a b c").FragmentH("h2", "d")
	b.FragmentM("m1", "s t").FragmentM("m2", "u v")
	b.Score("a", "s", 4).Score("a", "t", 1).Score("b", "t'", 3)
	b.Score("c", "u", 5).Score("d", "t", 2).Score("d", "v'", 2)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res, err := Solve(in, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Score < 0 || res.Score > 11 {
			t.Fatalf("%s: score %v out of range", alg, res.Score)
		}
		if alg == Exact && res.Score != 11 {
			t.Fatalf("exact score %v, want 11", res.Score)
		}
		if alg == CSRImprove && res.Score != 11 {
			t.Fatalf("CSR_Improve score %v, want 11 on the paper example", res.Score)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	b.FragmentH("h", "'")
	if _, err := b.Build(); err == nil {
		t.Fatal("bad token accepted")
	}
	b2 := NewBuilder("empty")
	b2.FragmentH("h", "a")
	b2.Score("'", "x", 1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("bad score token accepted")
	}
	b3 := NewBuilder("emptyfrag")
	b3.FragmentH("h", "")
	if _, err := b3.Build(); err == nil {
		t.Fatal("empty fragment accepted")
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	in := PaperExample()
	if _, err := Solve(in, Algorithm("nope")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSolveOptionsAndStats(t *testing.T) {
	in := PaperExample()
	res, err := Solve(in, CSRImprove,
		WithEps(0.1), WithFourApproxSeed(true), WithConsistencyChecks(true))
	if err != nil {
		t.Fatal(err)
	}
	qres, err := Solve(in, CSRImprove, WithQuantizedScaling(true))
	if err != nil {
		t.Fatal(err)
	}
	if qres.Score != 11 {
		t.Fatalf("quantized-scaling score %v, want 11", qres.Score)
	}
	if res.Stats == nil {
		t.Fatal("no stats from improvement run")
	}
	if res.Conjecture == nil || res.Solution == nil {
		t.Fatal("missing artifacts")
	}
	if len(res.LayoutH) == 0 || len(res.LayoutM) == 0 {
		t.Fatal("missing layouts")
	}
}

func TestInstanceIO(t *testing.T) {
	in := PaperExample()
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(back, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 11 {
		t.Fatalf("round-trip optimum %v", res.Score)
	}
}

func TestGenerateAndSolveEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		cfg := DefaultGenConfig(r.Int63())
		cfg.Regions = 25
		w := Generate(cfg)
		res, err := Solve(w.Instance, CSRImprove, WithFourApproxSeed(true))
		if err != nil {
			t.Fatal(err)
		}
		fa, err := Solve(w.Instance, FourApprox)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score < fa.Score-1e-9 {
			t.Fatalf("improvement below its seedable baseline: %v < %v", res.Score, fa.Score)
		}
	}
}

func TestFormatResult(t *testing.T) {
	in := PaperExample()
	res, err := Solve(in, CSRImprove)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(in, res)
	for _, want := range []string{"score: 11", "H layout:", "matches:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
	ex, err := Solve(in, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatResult(in, ex); !strings.Contains(out, "score: 11") {
		t.Fatalf("exact format: %s", out)
	}
}

func TestMatching2OnBorderInstances(t *testing.T) {
	// Fooling-family instances are single-region fragments: every match is
	// full–full, so Matching2 is the optimal matching and must reach the
	// planted optimum.
	b := NewBuilder("pairs")
	b.FragmentH("h1", "x").FragmentH("h2", "y")
	b.FragmentM("m1", "p").FragmentM("m2", "q")
	b.Score("x", "p", 3).Score("x", "q", 4).Score("y", "p", 5)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(in, Matching2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 9 { // x–q + y–p
		t.Fatalf("matching2 score %v, want 9", res.Score)
	}
}
