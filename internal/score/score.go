// Package score implements the alignment score function σ : Σ̃ × Σ̃ → ℝ of
// the CSR problem, with the paper's required laws
//
//	σ(a, b) = σ(aᴿ, bᴿ)            (reversal symmetry)
//	σ(a, ⊥) = σ(⊥, a) = 0          (padding is free)
//
// The primary implementation is a sparse Table keyed by canonicalized symbol
// pairs; an Identity scorer serves the UCSR restriction where σ(a,b) = 0 for
// a ≠ b. A Quantized wrapper implements the Chandra–Halldórsson scaling step
// used to bound the number of local improvements.
//
// # Compiled sparse matrices
//
// Any Scorer can be compiled into a Compiled matrix (Compile): a compressed
// sparse row (CSR) layout over oriented symbol indices, holding the column
// and float64 value of every nonzero cell and covering region IDs up to a
// chosen bound. Solvers compile σ once per solve and pass the matrix
// through every alignment kernel, which build per-call tables of the cells
// that hit their words (Cells, PosRow) and touch only those — no interface
// call or map hash per DP cell. Stored values are the exact float64 values
// the base scorer returned at compile time and every unlisted cell is +0,
// so compiled and sparse paths score bit-identically; out-of-range symbols
// fall back to the base scorer.
//
// No form allocates dim² float64 cells. Table and Identity compile in
// O(stored entries + dim), Quantized in O(nonzero cells of its base), and
// only other scorers evaluate every cell. The derived forms — the
// transpose (a counting sort, CSR to CSC) and the per-row positive-cell
// lists (PosRow) — cost O(nonzeros + dim). The integer quantization (Int)
// is one more matrix of the same layout, holding each cell rounded to a
// whole number of quantization units, so it costs what the float64 form
// does. Transpose exchanges species sides, transposing the compiled matrix
// when given one.
package score

import (
	"math"
	"sync/atomic"

	"repro/internal/symbol"
)

// Scorer evaluates σ(a, b). Implementations must obey reversal symmetry and
// score 0 against the padding symbol.
type Scorer interface {
	// Score returns σ(a, b).
	Score(a, b symbol.Symbol) float64
}

// pairKey canonicalizes an (a, b) pair under reversal symmetry: (a, b) and
// (aᴿ, bᴿ) share a key. Species sides are NOT interchangeable: σ(a,b) and
// σ(b,a) are distinct entries unless the caller sets both.
type pairKey struct{ a, b symbol.Symbol }

func canonKey(a, b symbol.Symbol) pairKey {
	// Canonical representative: make the first symbol normal-orientation;
	// if the first is a pad, make the second normal-orientation.
	if a.Reversed() || (a.IsPad() && b.Reversed()) {
		a, b = a.Rev(), b.Rev()
	}
	return pairKey{a, b}
}

// Table is a sparse score function: unlisted pairs score 0. The zero value
// is not usable; create with NewTable.
type Table struct {
	m map[pairKey]float64
	// gen counts mutations; compiled caches the last Compile result stamped
	// with the gen it saw, so repeated solves over one table — every batch
	// driver's steady state — reuse one compiled matrix (and, through its
	// sub-caches, one quantization and one transpose) instead of
	// re-densifying per pool. Mutating and compiling a table concurrently
	// is as unsynchronized as mutating and scoring one; the cache pointer
	// itself is atomic so concurrent Compile calls stay safe.
	gen      uint64
	compiled atomic.Pointer[tableCompiled]
}

// tableCompiled stamps a cached compiled matrix with the table generation it
// was built from.
type tableCompiled struct {
	gen uint64
	c   *Compiled
}

// NewTable returns an empty sparse score table.
func NewTable() *Table { return &Table{m: make(map[pairKey]float64)} }

// Set records σ(a, b) = v (and, by reversal symmetry, σ(aᴿ, bᴿ) = v).
// Setting a score against the padding symbol is ignored: pads always
// score 0.
func (t *Table) Set(a, b symbol.Symbol, v float64) {
	if a.IsPad() || b.IsPad() {
		return
	}
	t.gen++
	t.m[canonKey(a, b)] = v
}

// Score returns σ(a, b); unlisted pairs and pad pairs score 0.
func (t *Table) Score(a, b symbol.Symbol) float64 {
	if a.IsPad() || b.IsPad() {
		return 0
	}
	return t.m[canonKey(a, b)]
}

// Len returns the number of distinct stored pairs (counting (a,b) and
// (aᴿ,bᴿ) once).
func (t *Table) Len() int { return len(t.m) }

// Pairs invokes fn for every stored pair in canonical orientation.
// Iteration order is unspecified.
func (t *Table) Pairs(fn func(a, b symbol.Symbol, v float64)) {
	for k, v := range t.m {
		fn(k.a, k.b, v)
	}
}

// MaxScore returns the largest stored score, or 0 for an empty table.
func (t *Table) MaxScore() float64 {
	best := 0.0
	for _, v := range t.m {
		if v > best {
			best = v
		}
	}
	return best
}

// TotalPositive returns the sum of all positive stored scores — a trivial
// upper bound on any solution score.
func (t *Table) TotalPositive() float64 {
	sum := 0.0
	for _, v := range t.m {
		if v > 0 {
			sum += v
		}
	}
	return sum
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := NewTable()
	for k, v := range t.m {
		c.m[k] = v
	}
	return c
}

// Identity scores σ(a, a) = weight(a) and σ(a, b) = 0 for a ≠ b — the UCSR
// restriction of §3.1. Weights are keyed by region ID, so a and aᴿ share a
// weight, and σ(a, a) = σ(aᴿ, aᴿ) as required. Note σ(a, aᴿ) = 0: matching a
// region against its own reversal scores nothing under Identity.
type Identity struct {
	weights map[int32]float64
	// Default is used for regions with no explicit weight.
	Default float64
}

// NewIdentity returns an identity scorer with the given default weight.
func NewIdentity(def float64) *Identity {
	return &Identity{weights: make(map[int32]float64), Default: def}
}

// SetWeight assigns σ'(a) for the region underlying s (orientation
// ignored).
func (id *Identity) SetWeight(s symbol.Symbol, w float64) {
	id.weights[s.ID()] = w
}

// Weight returns σ'(a) for the region underlying s.
func (id *Identity) Weight(s symbol.Symbol) float64 {
	if w, ok := id.weights[s.ID()]; ok {
		return w
	}
	return id.Default
}

// Score implements Scorer: equal symbols score their region weight,
// everything else scores 0.
func (id *Identity) Score(a, b symbol.Symbol) float64 {
	if a.IsPad() || b.IsPad() || a != b {
		return 0
	}
	return id.Weight(a)
}

// Quantized wraps a Scorer, truncating every score down to an integer
// multiple of Unit. With Unit = X/k² (X a 4-approximate solution score, k a
// bound on the number of matches) this is exactly the Chandra–Halldórsson
// scaling of §4.1: it limits the number of positive-gain improvements to
// 4k² while underestimating the optimum by at most X/k.
type Quantized struct {
	Base Scorer
	Unit float64
}

// Score truncates Base.Score down to a multiple of Unit. A non-positive
// Unit passes scores through unchanged.
func (q Quantized) Score(a, b symbol.Symbol) float64 {
	v := q.Base.Score(a, b)
	if q.Unit <= 0 {
		return v
	}
	return math.Floor(v/q.Unit) * q.Unit
}

// Verify checks the scorer laws on the given symbol universe: reversal
// symmetry for all pairs drawn from syms, and zero against the pad. It
// returns the first violated pair, or ok = true.
func Verify(sc Scorer, syms []symbol.Symbol) (a, b symbol.Symbol, ok bool) {
	for _, x := range syms {
		if sc.Score(x, symbol.Pad) != 0 || sc.Score(symbol.Pad, x) != 0 {
			return x, symbol.Pad, false
		}
		for _, y := range syms {
			if sc.Score(x, y) != sc.Score(x.Rev(), y.Rev()) {
				return x, y, false
			}
		}
	}
	return 0, 0, true
}
