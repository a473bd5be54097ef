package batch

// Memory-budget admission: a cost model estimating the peak bytes one
// instance's solve pins, gated at submit so a pool (or the daemon in front
// of it) refuses work it cannot fit instead of dying on OOM: a single
// mis-sized instance must not take down a daemon serving thousands of small
// ones.
//
// The model is deliberately simple and inspectable — three structural terms
// any operator can recompute from the instance shape:
//
//   - σ compile bytes: the compiled matrix is sparse, so it costs bytes per
//     nonzero cell — a column index and a float64 value each in the matrix,
//     its transpose (cached on the matrix, built by every improvement
//     solve) and the positive-cell index (PosRow) of both — plus row
//     offsets and build cursors per oriented symbol, dim = 2·MaxSymbolID+1
//     of them.
//     The nonzero count is exact for a Table (two oriented cells per stored
//     entry) and an Identity (the diagonal); any other scorer is charged
//     every cell. A solve that quantizes σ (integer score mode) adds the
//     quantized matrix, its transpose and their positive-cell indexes in
//     the same sparse layout, so the term is charged twice (an upper
//     bound: cells that round to 0 are dropped).
//   - DP scratch: alignment kernels sweep rolled rows, but the two-phase
//     scoring path materializes O(maxH·maxM) cells for the longest fragment
//     pair, plus the solve's row scratch.
//   - solver state: per-region structures (sites, index slots, version
//     counters, enumeration pieces) and per-match bookkeeping across the
//     live state and its simulation undo trail.
//
// A solve draws its state, scratch and index tables from per-package
// sync.Pools, and a warm shard reuses the tables the previous solve left
// there. The model charges them to every instance anyway, as if each solve
// built them fresh: a retained workspace is sized by the largest instance
// it served, which may be this one, and a collection may empty the pools
// at any time, so reuse is never assumed.
//
// The σ term is pinned against measured allocations (memcost_test.go); the
// other constants are calibrated to observed live-heap profiles of the
// pinned 60-region and genome-small workloads — intentionally on the
// conservative side, since the budget guards against death, not
// fragmentation.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/score"
)

// MemEstimate is the per-instance cost-model breakdown, in bytes.
type MemEstimate struct {
	// SigmaBytes is the σ compile cost (matrix, cached transpose and
	// positive-cell index, plus the same forms of the quantized matrix
	// when the solve quantizes). Zero when the pool's σ cache already holds
	// this scorer's matrix — the admission question is what ADDITIONAL
	// memory the solve pins.
	SigmaBytes int64 `json:"sigma_bytes"`
	// ScratchBytes is the DP scratch high-water mark.
	ScratchBytes int64 `json:"scratch_bytes"`
	// StateBytes covers solver state: per-region and per-match structures.
	StateBytes int64 `json:"state_bytes"`
}

// Total is the admission-gated sum.
func (e MemEstimate) Total() int64 { return e.SigmaBytes + e.ScratchBytes + e.StateBytes }

func (e MemEstimate) String() string {
	return fmt.Sprintf("%s (σ %s + scratch %s + state %s)",
		encoding.FormatByteSize(e.Total()), encoding.FormatByteSize(e.SigmaBytes),
		encoding.FormatByteSize(e.ScratchBytes), encoding.FormatByteSize(e.StateBytes))
}

// Per-unit constants of the cost model (see the package comment above).
const (
	sigmaCellBytes   = 4 * (4 + 8) // column + float64 value: matrix, transpose, and their PosRow indexes
	sigmaSymbolBytes = 6 * 4       // four row-offset arrays + two counting-sort cursors
	scratchCellBytes = 8           // one two-phase DP cell
	regionBytes      = 192         // sites, fragment index slots, enum pieces, versions
	matchBytes       = 96          // live match + memo + trail share
)

// EstimateMem runs the admission cost model on one instance; quantized
// charges the quantized σ forms of integer score mode as well.
func EstimateMem(in *core.Instance, quantized bool) MemEstimate {
	return estimateMem(in, in.MaxSymbolID(), quantized)
}

// estimateMem is EstimateMem with the MaxSymbolID scan hoisted, for callers
// that already need the ID (the submit gate reuses it for the σ-cache peek).
func estimateMem(in *core.Instance, maxID int32, quantized bool) MemEstimate {
	dim := 2*int64(maxID) + 1
	var maxH, maxM int64
	for i := range in.H {
		if l := int64(len(in.H[i].Regions)); l > maxH {
			maxH = l
		}
	}
	for i := range in.M {
		if l := int64(len(in.M[i].Regions)); l > maxM {
			maxM = l
		}
	}
	sigma := sigmaCellBytes*sigmaCells(in.Sigma, maxID) + sigmaSymbolBytes*dim
	if quantized {
		// The quantized forms mirror the float64 ones, per nonzero cell and
		// per oriented symbol.
		sigma *= 2
	}
	return MemEstimate{
		SigmaBytes:   sigma,
		ScratchBytes: scratchCellBytes * (maxH + 2) * (maxM + 2),
		StateBytes:   regionBytes*int64(in.TotalRegions()) + matchBytes*int64(in.MaxMatches()),
	}
}

// sigmaCells bounds the nonzero cells sc compiles to over region IDs up to
// maxID: tight for the stored forms, every cell for an opaque scorer.
func sigmaCells(sc score.Scorer, maxID int32) int64 {
	switch s := sc.(type) {
	case *score.Table:
		return 2 * int64(s.Len())
	case *score.Identity:
		return 2 * int64(maxID)
	case *score.Compiled:
		if s.MaxID() >= maxID {
			return int64(s.Nonzeros())
		}
	case score.Quantized:
		return sigmaCells(s.Base, maxID)
	}
	dim := 2*int64(maxID) + 1
	return dim * dim
}

// OverBudgetError is returned by Submit/TrySubmit when the cost model puts
// an instance over the pool's MemBudget. It carries the full estimate so
// frontends can answer a structured reject (csrserve's 413 body) and
// operators can see which term blew the budget.
type OverBudgetError struct {
	Estimate MemEstimate
	Budget   int64
}

func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("batch: instance needs ~%s, over the %s memory budget",
		e.Estimate, encoding.FormatByteSize(e.Budget))
}

// admitMem applies the memory budget to one submission; nil error admits.
// Instances whose σ is already resident (pre-compiled, or in the pool's
// identity cache) are charged only their scratch and state.
func (p *Pool) admitMem(in *core.Instance) error {
	if p.opts.MemBudget <= 0 {
		return nil
	}
	maxID := in.MaxSymbolID()
	est := estimateMem(in, maxID, p.opts.Quantized)
	if p.sigs.peek(in.Sigma, maxID) {
		est.SigmaBytes = 0
	}
	if est.Total() > p.opts.MemBudget {
		p.overBudget.Add(1)
		return &OverBudgetError{Estimate: est, Budget: p.opts.MemBudget}
	}
	return nil
}
