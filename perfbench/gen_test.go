package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/gen"
)

func sameItems(a, b []item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].line, b[i].line) || a[i].truth != b[i].truth {
			return false
		}
	}
	return true
}

func TestWorkloadsDeterministic(t *testing.T) {
	b1, err := genBatch(7)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := genBatch(7)
	b3, _ := genBatch(8)
	if !sameItems(b1, b2) {
		t.Error("batch-improve inputs differ for one seed")
	}
	if sameItems(b1, b3) {
		t.Error("batch-improve inputs equal for two seeds")
	}
	g1, err := genGenome(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := genGenome(7, 2)
	if !sameItems(g1, g2) {
		t.Error("genome-seeded inputs differ for one seed")
	}
	s1, err := genServe(7, 40, serveRate)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := genServe(7, 40, serveRate)
	for i := range s1 {
		a, b := s1[i], s2[i]
		if a.due != b.due || a.tenant != b.tenant || !bytes.Equal(a.body, b.body) {
			t.Fatalf("serve-mixed request %d differs for one seed", i)
		}
	}
	fresh, pairs := 0, 0
	for _, q := range s1 {
		if q.tenant == freshTenant {
			fresh++
		}
		if q.n == 2 {
			pairs++
		}
	}
	if fresh != 6 || pairs != 20 {
		t.Errorf("serve mix: %d fresh-σ and %d two-instance requests of 40, want 6 and 20", fresh, pairs)
	}
	if last := s1[len(s1)-1].due; last > 40/serveRate {
		t.Errorf("last arrival at %vs, past the %vs span", last, 40/serveRate)
	}
}

// The genome workload's σ must follow its own region count. Cutting the
// 5k preset down by Regions alone keeps the canonical alphabet's symbol
// IDs, and with them a σ dimension sized for 5,000 regions.
func TestGenomeSymbolIDsScaleWithRegions(t *testing.T) {
	ids := map[int]int32{}
	for _, regions := range []int{500, 1000, 2000} {
		ids[regions] = gen.Generate(genomeConfig(3, regions)).Instance.MaxSymbolID()
		if ids[regions] > int32(2*regions) {
			t.Errorf("%d regions: MaxSymbolID %d above 2·regions", regions, ids[regions])
		}
	}
	if r := float64(ids[2000]) / float64(ids[1000]); r < 1.8 || r > 2.2 {
		t.Errorf("MaxSymbolID grew %.2f× from 1000 to 2000 regions, want about 2×", r)
	}
	items, err := genGenome(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := decodeOne(items[0].line)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.MaxSymbolID(); got > 2*genomeMaxRegions {
		t.Errorf("decoded genome instance MaxSymbolID %d above %d", got, 2*genomeMaxRegions)
	}
}

func TestMetricNamesMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: manifest %s %s, benchmark %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", man.EndToEnd, endToEnd)
	compare("per_layer", man.PerLayer, perLayer)
}
