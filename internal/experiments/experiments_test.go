package experiments

import (
	"strings"
	"testing"
)

// table runs the experiment listed in All under id and checks that the
// table it builds carries that ID.
func table(t *testing.T, id string, seed int64) *Table {
	t.Helper()
	for _, e := range All {
		if e.ID == id {
			tb := e.Run(seed)
			if tb.ID != id {
				t.Fatalf("All lists %s but its table is %s", id, tb.ID)
			}
			return tb
		}
	}
	t.Fatalf("All lists no %s", id)
	return nil
}

func TestE1OptimumRecovered(t *testing.T) {
	tb := table(t, "E1", 0)
	if len(tb.Rows) < 2 {
		t.Fatal("missing rows")
	}
	for _, row := range tb.Rows {
		if row[0] == "exact" && row[1] != "11.00" {
			t.Fatalf("exact row = %v", row)
		}
		if row[0] == "csr-improve" && row[1] != "11.00" {
			t.Fatalf("csr-improve row = %v", row)
		}
	}
	out := tb.Format()
	if !strings.Contains(out, "E1") || !strings.Contains(out, "exact") {
		t.Fatalf("format: %s", out)
	}
}

func TestE2IdentityHolds(t *testing.T) {
	tb := table(t, "E2", 1)
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tb.Rows {
		if row[5] != "true" {
			t.Fatalf("5n+MIS identity failed: %v", row)
		}
	}
}

func TestE3RecoveryHolds(t *testing.T) {
	tb := table(t, "E3", 0)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[3] != "11.00" {
			t.Fatalf("lift not score-preserving: %v", row)
		}
		if row[7] != "true" {
			t.Fatalf("recovery below 1−ε: %v", row)
		}
	}
}

func TestE4InequalityHolds(t *testing.T) {
	tb := table(t, "E4", 2)
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tb.Rows {
		if row[7] != "true" {
			t.Fatalf("Theorem 3 inequality failed: %v", row)
		}
	}
}

func TestE5RatioRows(t *testing.T) {
	tb := table(t, "E5", 3)
	ratios := 0
	for _, row := range tb.Rows {
		if row[2] != "-" {
			ratios++
			if row[2] < "0.50" {
				t.Fatalf("two-phase ratio below half: %v", row)
			}
		}
	}
	if ratios == 0 {
		t.Fatal("no ratio rows")
	}
}

func TestE6E7E8Populate(t *testing.T) {
	if len(table(t, "E6", 4).Rows) == 0 {
		t.Error("E6 empty")
	}
	if len(table(t, "E7", 5).Rows) == 0 {
		t.Error("E7 empty")
	}
	if len(table(t, "E8", 6).Rows) == 0 {
		t.Error("E8 empty")
	}
}

func TestE10FoolingShape(t *testing.T) {
	tb := table(t, "E10", 0)
	for _, row := range tb.Rows {
		if row[5] >= row[6] {
			t.Fatalf("greedy ratio %s not below improve ratio %s", row[5], row[6])
		}
		if row[6] != "1.00" {
			t.Fatalf("CSR_Improve missed the planted optimum: %v", row)
		}
	}
}

func TestE11RecoveryShape(t *testing.T) {
	tb := table(t, "E11", 1)
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	sawPerfect := false
	for _, row := range tb.Rows {
		if row[0] == "120/inv=0" && row[3] == "1.00" && row[4] == "1.00" {
			sawPerfect = true
		}
	}
	if !sawPerfect {
		t.Fatal("no perfect recovery at 120/inv=0 — shape regression")
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tb := &Table{
		ID: "EX", Title: "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"xxxx", "y"}},
		Notes:   "n",
	}
	out := tb.Format()
	if !strings.Contains(out, "note: n") {
		t.Fatalf("format: %s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatal("too few lines")
	}
}
