package fragalign

import (
	"slices"
	"strings"
	"testing"
)

func TestIslandsReportPaperExample(t *testing.T) {
	in := PaperExample()
	res, err := Solve(in, CSRImprove)
	if err != nil {
		t.Fatal(err)
	}
	islands, err := IslandsReport(in, res.Solution)
	if err != nil {
		t.Fatal(err)
	}
	if len(islands) != 1 {
		t.Fatalf("islands = %d, want 1 (the paper example is one island)", len(islands))
	}
	isl := islands[0]
	if isl.Score != 11 {
		t.Fatalf("island score %v", isl.Score)
	}
	if len(isl.LayoutH) != 2 || len(isl.LayoutM) != 2 {
		t.Fatalf("island layouts %v / %v", isl.LayoutH, isl.LayoutM)
	}
	text := FormatIsland(in, isl)
	for _, want := range []string{"h1", "h2'", "m1", "m2", "score 11"} {
		if !strings.Contains(text, want) {
			t.Fatalf("island text %q missing %q", text, want)
		}
	}
}

func TestIslandsReportSeparatesComponents(t *testing.T) {
	// Two unrelated pairs form two islands.
	b := NewBuilder("two-islands")
	b.FragmentH("h1", "a").FragmentH("h2", "b")
	b.FragmentM("m1", "p").FragmentM("m2", "q")
	b.Score("a", "p", 5).Score("b", "q", 3)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(in, CSRImprove)
	if err != nil {
		t.Fatal(err)
	}
	islands, err := IslandsReport(in, res.Solution)
	if err != nil {
		t.Fatal(err)
	}
	if len(islands) != 2 {
		t.Fatalf("islands = %d, want 2", len(islands))
	}
	// Sorted by descending score.
	if islands[0].Score < islands[1].Score {
		t.Fatal("islands not sorted by score")
	}
	if islands[0].Score != 5 || islands[1].Score != 3 {
		t.Fatalf("scores %v / %v", islands[0].Score, islands[1].Score)
	}
}

func TestIslandsReportGenerated(t *testing.T) {
	w := Generate(DefaultGenConfig(12))
	res, err := Solve(w.Instance, CSRImprove, WithFourApproxSeed(true))
	if err != nil {
		t.Fatal(err)
	}
	islands, err := IslandsReport(w.Instance, res.Solution)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	nMatches := 0
	for _, isl := range islands {
		total += isl.Score
		nMatches += len(isl.Matches)
		if len(isl.LayoutH) == 0 || len(isl.LayoutM) == 0 {
			t.Fatal("island with an empty side")
		}
	}
	if diff := total - res.Score; diff > 1e-9*(1+res.Score) || diff < -1e-9*(1+res.Score) {
		t.Fatalf("island scores sum to %v, solution %v", total, res.Score)
	}
	if nMatches != len(res.Solution.Matches) {
		t.Fatalf("island matches %d, solution %d", nMatches, len(res.Solution.Matches))
	}
}

func TestIslandsReportNil(t *testing.T) {
	if _, err := IslandsReport(PaperExample(), nil); err == nil {
		t.Fatal("nil solution accepted")
	}
}

// TestIslandsReportRejectsInvalidSites holds IslandsReport to an error, not
// a panic, on a match whose site lies off the instance's fragments.
func TestIslandsReportRejectsInvalidSites(t *testing.T) {
	in := PaperExample()
	res, err := Solve(in, CSRImprove)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*Match)
		want string
	}{
		{"M fragment past the end", func(mt *Match) { mt.MSite.Frag = in.NumFrags(SpeciesM) + 5 }, "fragment out of range"},
		{"negative H fragment", func(mt *Match) { mt.HSite.Frag = -1 }, "fragment out of range"},
		{"swapped species", func(mt *Match) { mt.HSite, mt.MSite = mt.MSite, mt.HSite }, "sites on wrong species"},
	} {
		bad := &Solution{Matches: slices.Clone(res.Solution.Matches)}
		c.edit(&bad.Matches[0])
		_, err := IslandsReport(in, bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
