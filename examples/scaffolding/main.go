// Scaffolding: the paper's motivating workload (Fig. 1) on synthetic data.
//
// Two genomes descend from a common ancestor; each is sequenced into
// unordered, unoriented contigs. Comparing conserved regions lets the
// solver orient and order contigs of one species relative to the other —
// the islands of §1. This example generates such a pair of fragmented
// genomes with known ground truth, runs the solvers, and reports how much
// of the ground-truth layout each recovers.
//
// Run: go run ./examples/scaffolding
package main

import (
	"fmt"
	"log"

	fragalign "repro"
)

func main() {
	cfg := fragalign.DefaultGenConfig(2026)
	cfg.Regions = 80
	cfg.Inversions = 4
	cfg.MeanContig = 4
	w := fragalign.Generate(cfg)
	in := w.Instance

	fmt.Printf("synthetic genomes: %d H contigs, %d M contigs, %d regions total\n",
		len(in.H), len(in.M), in.TotalRegions())
	fmt.Printf("ground-truth layout score (lower bound on optimum): %.1f\n\n", w.TrueLayoutScore)

	for _, alg := range []fragalign.Algorithm{
		fragalign.GreedyMatching,
		fragalign.FourApprox,
		fragalign.CSRImprove,
	} {
		res, err := fragalign.Solve(in, alg, fragalign.WithFourApproxSeed(true))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s score %8.1f   matches %3d   islands of ≥2 contigs: %d\n",
			alg, res.Score, len(res.Solution.Matches), countIslands(in, res))
	}

	res, err := fragalign.Solve(in, fragalign.CSRImprove, fragalign.WithFourApproxSeed(true))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninferred M-contig layout (CSR_Improve):")
	fmt.Println(" ", res.Conjecture.FormatLayout(in, fragalign.SpeciesM, matched(res, fragalign.SpeciesM)))
	fmt.Println("contigs after | are unplaced (no informative alignments survived).")

	acc := fragalign.RecoveryAccuracy(res, fragalign.SpeciesM)
	fmt.Printf("\nground-truth recovery: %d contigs placed, %.0f%% pairwise order, %.0f%% orientation\n",
		acc.Placed, 100*acc.PairOrder, 100*acc.Orientation)
	fmt.Println("(orientation is measured against M-genome-local truth; correctly")
	fmt.Println(" inferred inversions count against it — see `csrbench -only E11`)")

	// The paper's actual deliverable: islands of contigs whose relative
	// order and orientation the comparison establishes.
	islands, err := fragalign.IslandsReport(in, res.Solution)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d islands (largest first):\n", len(islands))
	for i, isl := range islands {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(islands)-5)
			break
		}
		fmt.Println(" ", fragalign.FormatIsland(in, isl))
	}
}

func countIslands(in *fragalign.Instance, res *fragalign.Result) int {
	n := 0
	for _, isl := range res.Solution.Islands(in) {
		if len(isl) >= 2 {
			n++
		}
	}
	return n
}

func matched(res *fragalign.Result, sp fragalign.Species) int {
	seen := map[int]bool{}
	for _, mt := range res.Solution.Matches {
		seen[mt.Side(sp).Frag] = true
	}
	return len(seen)
}
