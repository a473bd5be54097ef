package batch

// Memory-budget admission: a cost model estimating the peak bytes one
// instance's solve pins, gated at submit so a pool (or the daemon in front
// of it) refuses work it cannot fit instead of dying on OOM. The genome
// presets make the failure mode concrete: genome-small's dense compiled σ
// alone is ~6.5 GB, so a single mis-sized instance can take down a daemon
// serving thousands of small ones.
//
// The model is deliberately simple and inspectable — three structural terms
// any operator can recompute from the instance shape:
//
//   - σ compile bytes: the dense float64 matrix is dim² cells for
//     dim = 2·MaxSymbolID+1, and its transpose (cached on the matrix, built
//     by every improvement solve) doubles it. Int-score mode adds int32
//     copies; the float term dominates and is what we charge. Each matrix
//     also keeps a sorted index of its nonzero cells (4 bytes per nonzero,
//     small beside the dim² term for a sparse σ), which is not charged.
//   - DP scratch: alignment kernels sweep rolled rows, but the two-phase
//     scoring path materializes O(maxH·maxM) cells for the longest fragment
//     pair, plus per-worker row scratch.
//   - solver state: per-region structures (sites, index slots, version
//     counters, enumeration pieces) and per-match bookkeeping across the
//     live state and its simulation clones.
//
// Constants are calibrated to observed live-heap profiles of the pinned
// 60-region and genome-small workloads — intentionally on the conservative
// side, since the budget guards against death, not fragmentation.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/encoding"
)

// MemEstimate is the per-instance cost-model breakdown, in bytes.
type MemEstimate struct {
	// SigmaBytes is the dense σ compile cost (matrix + cached transpose).
	// Zero when the pool's σ cache already holds this scorer's matrix — the
	// admission question is what ADDITIONAL memory the solve pins.
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
	sigmaCellBytes   = 2 * 8 // float64 matrix cell + its cached transpose's
	scratchCellBytes = 8     // one two-phase DP cell
	regionBytes      = 192   // sites, fragment index slots, enum pieces, versions
	matchBytes       = 96    // live match + memo + clone share
)

// EstimateMem runs the admission cost model on one instance.
func EstimateMem(in *core.Instance) MemEstimate {
	return estimateMem(in, in.MaxSymbolID())
}

// estimateMem is EstimateMem with the MaxSymbolID scan hoisted, for callers
// that already need the ID (the submit gate reuses it for the σ-cache peek).
func estimateMem(in *core.Instance, maxID int32) MemEstimate {
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
	return MemEstimate{
		SigmaBytes:   sigmaCellBytes * dim * dim,
		ScratchBytes: scratchCellBytes * (maxH + 2) * (maxM + 2),
		StateBytes:   regionBytes*int64(in.TotalRegions()) + matchBytes*int64(in.MaxMatches()),
	}
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
	est := estimateMem(in, maxID)
	if p.sigs.peek(in.Sigma, maxID) {
		est.SigmaBytes = 0
	}
	if est.Total() > p.opts.MemBudget {
		p.overBudget.Add(1)
		return &OverBudgetError{Estimate: est, Budget: p.opts.MemBudget}
	}
	return nil
}
