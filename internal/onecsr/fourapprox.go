package onecsr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/score"
)

// Transpose returns the instance with species swapped (H′ = M, M′ = H and
// σ transposed). A solution of the transposed instance maps back by
// swapping the sides of every match. A compiled σ transposes into a
// compiled matrix, so both halves of the Theorem 3 doubling stay on the
// compiled fast path.
func Transpose(in *core.Instance) *core.Instance {
	return &core.Instance{
		Name:  in.Name + "ᵀ",
		H:     in.M,
		M:     in.H,
		Alpha: in.Alpha,
		Sigma: score.Transpose(in.Sigma),
	}
}

// transposeSolution swaps the sides of every match back.
func transposeSolution(sol *core.Solution) *core.Solution {
	out := &core.Solution{Matches: make([]core.Match, len(sol.Matches))}
	for i, mt := range sol.Matches {
		h, m := mt.MSite, mt.HSite
		h.Species, m.Species = core.SpeciesH, core.SpeciesM
		out.Matches[i] = core.Match{HSite: h, MSite: m, Rev: mt.Rev, Score: mt.Score}
	}
	return out
}

// FourApprox is Corollary 1: a polynomial-time 4-approximation for general
// CSR. It runs the ratio-2 1-CSR algorithm on (H, M′) and on (M, H′) —
// Theorem 3's doubling, where X′ concatenates a fragment set into one word —
// splits the concatenated matches back onto original fragments, and keeps
// the better of the two consistent solutions.
func FourApprox(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// One prepared σ — dense float64, or the caller's int32-quantized
	// matrix — serves both doubling halves, every placement DP, and the
	// final validations; one scratch set serves both halves.
	cin := *in
	cin.Sigma = score.Prepare(in.Sigma, in.MaxSymbolID())
	w := newWork()
	defer w.release()
	a, err := w.halfOnConcat(&cin)
	if err != nil {
		return nil, err
	}
	tin := Transpose(&cin)
	bT, err := w.halfOnConcat(tin)
	if err != nil {
		return nil, err
	}
	b := transposeSolution(bT)
	// Recompute scores under the original σ orientation (they are equal,
	// but the cached values must verify against in.Sigma).
	for i := range b.Matches {
		mt := &b.Matches[i]
		mt.Score = w.scr.Score(in.SiteWord(mt.HSite), in.SiteWord(mt.MSite).Orient(mt.Rev), cin.Sigma)
	}
	if err := b.Validate(&cin); err != nil {
		return nil, fmt.Errorf("onecsr: transposed solution invalid: %w", err)
	}
	if a.Score() >= b.Score() {
		return a, nil
	}
	return b, nil
}

// HalfOnConcat runs the ratio-2 1-CSR algorithm on (H, M′) where M′ is the
// concatenation of all M fragments, then splits matches back across
// fragment boundaries. By inequality (2) of Theorem 3, the better of this
// and its transpose is a 4-approximation.
func HalfOnConcat(in *core.Instance) (*core.Solution, error) {
	w := newWork()
	defer w.release()
	return w.halfOnConcat(in)
}

// halfOnConcat is HalfOnConcat on w's scratch.
func (w *work) halfOnConcat(in *core.Instance) (*core.Solution, error) {
	if len(in.M) == 1 {
		sol, err := w.solveOne(in, true)
		if err != nil {
			return nil, err
		}
		if err := sol.Validate(in); err != nil {
			return nil, err
		}
		return sol, nil
	}
	cat, bounds := concatM(in)
	sol, err := w.solveOne(cat, false)
	if err != nil {
		return nil, err
	}
	return splitByBounds(w.scr, in, cat, bounds, sol)
}
