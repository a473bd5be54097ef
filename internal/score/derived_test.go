package score

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/symbol"
)

// Reference implementations of the compiled forms: plain scans over every
// dim² cell of a dense matrix evaluated from the base scorer, with no
// sparse index. The production forms never materialize a dense float64
// matrix; TestDerivedFormsMatchDenseScan pins them to these bit for bit.

// refDense evaluates base on every oriented pair with region IDs up to n
// into a dense dim×dim matrix (a ±0 score reads as +0, as compiled).
func refDense(base Scorer, n int32) []float64 {
	dim := 2*n + 1
	flat := make([]float64, dim*dim)
	for a := -n; a <= n; a++ {
		for b := -n; b <= n; b++ {
			if v := base.Score(symbol.Symbol(a), symbol.Symbol(b)); v != 0 {
				flat[(a+n)*dim+(b+n)] = v
			}
		}
	}
	return flat
}

// refCSR lists the nonzero cells of a dense dim×dim matrix row by row.
func refCSR(flat []float64, dim int32) (off, col []int32, val []float64) {
	off = make([]int32, dim+1)
	for i := int32(0); i < dim; i++ {
		for j := int32(0); j < dim; j++ {
			if v := flat[i*dim+j]; v != 0 {
				col = append(col, j)
				val = append(val, v)
			}
		}
		off[i+1] = int32(len(col))
	}
	return off, col, val
}

func refTranspose(flat []float64, dim int32) []float64 {
	out := make([]float64, len(flat))
	for i := int32(0); i < dim; i++ {
		for j := int32(0); j < dim; j++ {
			out[j*dim+i] = flat[i*dim+j]
		}
	}
	return out
}

func refPosRows(flat []float64, dim int32) (off, col []int32, val []float64) {
	off = make([]int32, dim+1)
	for i := int32(0); i < dim; i++ {
		for j := int32(0); j < dim; j++ {
			if v := flat[i*dim+j]; v > 0 {
				col = append(col, j)
				val = append(val, v)
			}
		}
		off[i+1] = int32(len(col))
	}
	return off, col, val
}

func refMaxAbsCell(flat []float64) float64 {
	v := 0.0
	for _, x := range flat {
		if a := math.Abs(x); a > v {
			v = a
		}
	}
	return v
}

func refChooseUnit(base Scorer, flat []float64) float64 {
	maxAbs := refMaxAbsCell(flat)
	if maxAbs == 0 {
		return 1
	}
	headroom := float64(int32(1) << intHeadroomBits)
	if q, ok := base.(Quantized); ok && q.Unit > 0 && maxAbs/q.Unit <= 2*headroom {
		return q.Unit
	}
	integral := true
	for _, v := range flat {
		if v != math.Trunc(v) {
			integral = false
			break
		}
	}
	if integral && maxAbs <= 2*headroom {
		return 1
	}
	return maxAbs / headroom
}

// refQuantize returns the quantized dense matrix of the dense dim×dim
// matrix flat (each cell a whole number of units), its largest |cell| and
// its largest per-cell rounding error.
func refQuantize(flat []float64, unit float64) (q []float64, maxAbs int32, cellErr float64) {
	q = make([]float64, len(flat))
	for i, v := range flat {
		x := int32(math.Round(v / unit))
		q[i] = float64(x)
		maxAbs = max(maxAbs, x, -x)
		if e := math.Abs(v - float64(x)*unit); e > cellErr {
			cellErr = e
		}
	}
	return q, maxAbs, cellErr
}

// sameBits reports float64 slice equality bit for bit (so −0 ≠ +0).
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkFloatIndex asserts c's sparse rows list exactly the nonzero cells of
// the dense reference ref, row by row in ascending column order (so no
// stored cell is ±0), and its positive-row index matches the dense scan.
func checkFloatIndex(t *testing.T, name string, c *Compiled, ref []float64) {
	t.Helper()
	off, col, val := refCSR(ref, c.dim)
	if !slices.Equal(c.rowOff, off) || !slices.Equal(c.col, col) || !sameBits(c.val, val) {
		t.Fatalf("%s: CSR cells differ from the dense scan:\n%v %v %v\nwant\n%v %v %v",
			name, c.rowOff, c.col, c.val, off, col, val)
	}
	off, col, val = refPosRows(ref, c.dim)
	if !slices.Equal(c.posOff, off) || !slices.Equal(c.posCol, col) || !sameBits(c.posVal, val) {
		t.Fatalf("%s: PosRow index differs from the dense scan", name)
	}
}

// checkQuantized asserts ci holds exactly the quantized cells of the dense
// reference ref under unit — its matrix and positive-row index bit for bit,
// with no cell that rounds to 0 stored — and returns the quantized dense
// matrix.
func checkQuantized(t *testing.T, name string, ref []float64, ci *CompiledInt, unit float64) []float64 {
	t.Helper()
	q, maxAbs, cellErr := refQuantize(ref, unit)
	if math.Float64bits(ci.unit) != math.Float64bits(unit) || ci.maxAbs != maxAbs ||
		math.Float64bits(ci.cellErr) != math.Float64bits(cellErr) {
		t.Fatalf("%s: unit/maxAbs/cellErr = %v/%v/%v, want %v/%v/%v",
			name, ci.unit, ci.maxAbs, ci.cellErr, unit, maxAbs, cellErr)
	}
	checkFloatIndex(t, name, ci.Compiled, q)
	return q
}

// checkDerived checks c against a dense scan of base over every covered
// pair, then compares every derived form of c against the dense-scan
// references.
func checkDerived(t *testing.T, name string, c *Compiled, base Scorer) {
	t.Helper()
	ref := refDense(base, c.n)
	for _, a := range orientedUniverse(c.n) {
		for _, b := range orientedUniverse(c.n) {
			if got, want := c.Score(a, b), base.Score(a, b); got != want {
				t.Fatalf("%s: compiled σ(%d,%d) = %v, want %v", name, a, b, got, want)
			}
		}
	}
	checkFloatIndex(t, name, c, ref)

	ct := c.Transposed()
	checkFloatIndex(t, name+"/T", ct, refTranspose(ref, c.dim))
	if ct.Transposed() != c {
		t.Fatalf("%s: Transposed().Transposed() is not the original matrix", name)
	}

	ci := c.Int()
	q := checkQuantized(t, name+"/int", ref, ci, refChooseUnit(c.base, ref))
	cit := ci.Transposed()
	checkFloatIndex(t, name+"/int/T", cit.Compiled, refTranspose(q, c.dim))
	if cit.unit != ci.unit || cit.maxAbs != ci.maxAbs || cit.cellErr != ci.cellErr {
		t.Fatalf("%s: int transpose changed unit/maxAbs/cellErr", name)
	}
	if cit.Source() != ct {
		t.Fatalf("%s: int transpose's source is not the float transpose", name)
	}
	if cit.Compiled != ci.Compiled.Transposed() {
		t.Fatalf("%s: int transpose's matrix is not the quantized matrix's cached transpose", name)
	}
	if cit.Transposed() != ci {
		t.Fatalf("%s: int Transposed().Transposed() is not the original matrix", name)
	}

	// IntWithUnit: an explicit unit, the automatic fallback, a unit so fine
	// it must be coarsened by the largest |cell|, and one so coarse that
	// most cells round to 0 and carry the whole rounding error.
	for _, u := range []float64{0.37, 0, 1e-12, 64} {
		want := u
		if want <= 0 {
			want = refChooseUnit(c.base, ref)
		}
		if m := refMaxAbsCell(ref); m/want > float64(int32(1)<<30) {
			want = m / float64(int32(1)<<30)
		}
		checkQuantized(t, name+"/int-unit", ref, c.IntWithUnit(u), want)
	}
}

// diffTable builds a random table over n regions that exercises every
// shape the compile path must handle: negative scores, fractional scores,
// both orientations and both species orders of one pair, entries set
// explicitly to ±0, and entries overwritten with 0.
func diffTable(r *rand.Rand, n int32, entries int, integral bool) *Table {
	tb := NewTable()
	sym := func() symbol.Symbol {
		s := symbol.Symbol(1 + r.Int31n(n))
		if r.Intn(2) == 0 {
			s = s.Rev()
		}
		return s
	}
	val := func() float64 {
		v := float64(r.Intn(21) - 6)
		if !integral {
			v += r.Float64()
		}
		return v
	}
	for i := 0; i < entries; i++ {
		a, b := sym(), sym()
		switch r.Intn(8) {
		case 0:
			tb.Set(a, b, 0)
		case 1:
			tb.Set(a, b, math.Copysign(0, -1))
		case 2: // both species orders, distinct values
			tb.Set(a, b, val())
			tb.Set(b, a, val())
		case 3: // both orientations of the species order: one entry
			tb.Set(a, b, val())
			tb.Set(a.Rev(), b.Rev(), val())
		case 4: // overwritten with zero
			tb.Set(a, b, val())
			tb.Set(a, b, 0)
		default:
			tb.Set(a, b, val())
		}
	}
	return tb
}

// opaque hides a scorer's concrete type so Compile takes its generic
// (default) path.
type opaque struct{ Scorer }

// negZero scores −0 on the pairs its base scores 0, so the generic path
// must not store them.
type negZero struct{ Scorer }

func (z negZero) Score(a, b symbol.Symbol) float64 {
	if v := z.Scorer.Score(a, b); v != 0 {
		return v
	}
	return math.Copysign(0, -1)
}

// TestDerivedFormsMatchDenseScan is the differential test of the sparse
// layout: on every compile path, the matrix, its transpose, the
// positive-row indexes and the integer quantization are bit-identical to
// plain dense scans of the base scorer, and the sparse rows list exactly
// the nonzero cells.
func TestDerivedFormsMatchDenseScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Int31n(24)
		integral := trial%2 == 0
		tb := diffTable(r, n, 1+r.Intn(80), integral)
		c := Compile(tb, n)
		checkDerived(t, "table", c, tb)
		// A narrower compile drops the out-of-range entries from the index
		// (on a clone: tb's compile cache would return the wider matrix).
		narrow := tb.Clone()
		checkDerived(t, "table-narrow", Compile(narrow, n/2), narrow)

		// The generic path over the same scores, with and without −0.
		checkDerived(t, "default", Compile(opaque{tb}, n), tb)
		checkDerived(t, "default-neg-zero", Compile(negZero{tb}, n), tb)
		tr := Transpose(Scorer(tb))
		checkDerived(t, "transposed-scorer", Compile(tr, n), tr)

		// Quantized over a table, over a wider compiled base, and
		// pass-through.
		q := Quantized{Base: tb, Unit: 0.25 + 2*r.Float64()}
		checkDerived(t, "quantized", Compile(q, n), q)
		wide := Quantized{Base: Compile(tb.Clone(), n+3), Unit: q.Unit}
		checkDerived(t, "quantized-wide", Compile(wide, n), wide)
		pass := Quantized{Base: tb.Clone()}
		checkDerived(t, "quantized-unit0", Compile(pass, n), pass)

		id := NewIdentity(float64(r.Intn(3)))
		for i := 0; i < 4; i++ {
			id.SetWeight(symbol.Symbol(1+r.Int31n(n)), float64(r.Intn(7)-2))
		}
		checkDerived(t, "identity", Compile(id, n), id)

		// Mutating the table invalidates its compile cache: the recompile
		// is a new matrix with a fresh, correct index, and the old matrix
		// keeps its own.
		before := slices.Clone(c.col)
		a, b := symbol.Symbol(1+r.Int31n(n)), symbol.Symbol(1+r.Int31n(n)).Rev()
		tb.Set(a, b, 9.5)
		tb.Pairs(func(x, y symbol.Symbol, v float64) {
			if v != 9.5 && r.Intn(3) == 0 {
				tb.Set(x, y, 0)
			}
		})
		c2 := Compile(tb, n)
		if c2 == c {
			t.Fatalf("trial %d: mutated table returned the stale matrix", trial)
		}
		if c2.Score(a, b) != 9.5 {
			t.Fatalf("trial %d: recompile misses the new entry", trial)
		}
		checkDerived(t, "table-mutated", c2, tb)
		if !slices.Equal(c.col, before) {
			t.Fatalf("trial %d: recompiling changed the old matrix's index", trial)
		}
	}
	// Degenerate sizes: the pad-only matrix and an empty table.
	empty := NewTable()
	checkDerived(t, "empty", Compile(empty, 0), empty)
	checkDerived(t, "empty-wide", Compile(NewTable(), 5), empty)
}
