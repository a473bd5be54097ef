package fragalign

import (
	"runtime"
	"testing"

	"repro/internal/score"
)

// TestNoDenseSigmaAllocation pins the sparse σ layout end to end: on the
// genome-shaped instance (dim 4,001), preparing σ and running seeded
// CSR_Improve from the 4-approximation, as the genome benchmark does,
// allocates fewer bytes in total than a single dim² float64 matrix — so no
// code path on the way allocates one.
func TestNoDenseSigmaAllocation(t *testing.T) {
	in := genomeShaped()
	dim := 2*int64(in.MaxSymbolID()) + 1
	if dim != 4001 {
		t.Fatalf("genome-shaped instance has dim %d, want 4001", dim)
	}
	dense := uint64(dim * dim * 8)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c := score.Compile(in.Sigma, in.MaxSymbolID())
	c.PosRow(1)
	c.Transposed().PosRow(1)
	if _, err := Solve(in, CSRImprove, WithFourApproxSeed(true), WithSeededCandidates(true)); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(in, FourApprox); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= dense {
		t.Fatalf("σ preparation and solves allocated %d bytes, at least one dim² float64 matrix (%d)", got, dense)
	} else {
		t.Logf("allocated %d bytes; one dim² float64 matrix is %d", got, dense)
	}
}
