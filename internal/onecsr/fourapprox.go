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

// transposeInPlace swaps the sides of every match of sol back.
func transposeInPlace(sol *core.Solution) {
	for i := range sol.Matches {
		mt := &sol.Matches[i]
		mt.HSite, mt.MSite = mt.MSite, mt.HSite
		mt.HSite.Species, mt.MSite.Species = core.SpeciesH, core.SpeciesM
	}
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
	a, err := w.halfOnConcat(w.halves[0][:0], &cin)
	if err != nil {
		return nil, err
	}
	w.halves[0] = a.Matches
	tin := Transpose(&cin)
	b, err := w.halfOnConcat(w.halves[1][:0], tin)
	if err != nil {
		return nil, err
	}
	w.halves[1] = b.Matches
	transposeInPlace(b)
	// Recompute scores under the original σ orientation (they are equal,
	// but the cached values must verify against in.Sigma).
	for i := range b.Matches {
		mt := &b.Matches[i]
		mt.Score = w.scr.Score(in.SiteWord(mt.HSite), w.oriented(in.SiteWord(mt.MSite), mt.Rev), cin.Sigma)
	}
	if err := b.Validate(&cin); err != nil {
		return nil, fmt.Errorf("onecsr: transposed solution invalid: %w", err)
	}
	// Both halves live in w's buffers: the better one is copied out.
	if a.Score() >= b.Score() {
		return a.Clone(), nil
	}
	return b.Clone(), nil
}

// HalfOnConcat runs the ratio-2 1-CSR algorithm on (H, M′) where M′ is the
// concatenation of all M fragments, then splits matches back across
// fragment boundaries. By inequality (2) of Theorem 3, the better of this
// and its transpose is a 4-approximation.
func HalfOnConcat(in *core.Instance) (*core.Solution, error) {
	w := newWork()
	defer w.release()
	return w.halfOnConcat(nil, in)
}

// halfOnConcat is HalfOnConcat on w's scratch, appending the solution's
// matches to dst.
func (w *work) halfOnConcat(dst []core.Match, in *core.Instance) (*core.Solution, error) {
	if len(in.M) == 1 {
		sol, err := w.solveOne(dst, in, true)
		if err != nil {
			return nil, err
		}
		if err := sol.Validate(in); err != nil {
			return nil, err
		}
		return sol, nil
	}
	cat, bounds := w.concatM(in)
	sol, err := w.solveOne(w.one[:0], cat, false)
	if err != nil {
		return nil, err
	}
	w.one = sol.Matches
	return w.splitByBounds(dst, in, cat, bounds, sol)
}
