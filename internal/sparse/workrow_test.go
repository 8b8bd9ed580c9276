package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestWorkRowScatterGather(t *testing.T) {
	w := NewWorkRow(10)
	w.Scatter([]int{3, 7, 1}, []float64{3.0, 7.0, 1.0})
	if w.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", w.NNZ())
	}
	cols, vals := w.Gather(0, 10, nil, nil)
	wantCols := []int{1, 3, 7}
	wantVals := []float64{1, 3, 7}
	for k := range wantCols {
		if cols[k] != wantCols[k] || vals[k] != wantVals[k] {
			t.Fatalf("Gather = (%v,%v), want (%v,%v)", cols, vals, wantCols, wantVals)
		}
	}
}

func TestWorkRowAccumulates(t *testing.T) {
	w := NewWorkRow(5)
	w.Add(2, 1.5)
	w.Add(2, 2.5)
	if got := w.Get(2); got != 4.0 {
		t.Fatalf("accumulated value = %v, want 4", got)
	}
	if w.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (no duplicate index)", w.NNZ())
	}
}

func TestWorkRowSetOverwrites(t *testing.T) {
	w := NewWorkRow(5)
	w.Add(1, 3)
	w.Set(1, -7)
	if got := w.Get(1); got != -7 {
		t.Fatalf("Set result = %v, want -7", got)
	}
}

func TestWorkRowDropAndReset(t *testing.T) {
	w := NewWorkRow(8)
	w.Scatter([]int{0, 4, 6}, []float64{1, 2, 3})
	w.Drop(4)
	if w.Has(4) || w.Get(4) != 0 {
		t.Fatal("Drop did not clear position 4")
	}
	idx := w.Indices()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 6 {
		t.Fatalf("Indices after drop = %v, want [0 6]", idx)
	}
	w.Reset()
	if w.NNZ() != 0 {
		t.Fatal("Reset left marked entries")
	}
	for j := 0; j < 8; j++ {
		if w.Get(j) != 0 || w.Has(j) {
			t.Fatalf("Reset left residue at %d", j)
		}
	}
}

func TestWorkRowGatherRange(t *testing.T) {
	w := NewWorkRow(10)
	w.Scatter([]int{1, 3, 5, 7, 9}, []float64{1, 3, 5, 7, 9})
	cols, vals := w.Gather(3, 8, nil, nil)
	if len(cols) != 3 || cols[0] != 3 || cols[2] != 7 {
		t.Fatalf("range gather cols = %v, want [3 5 7]", cols)
	}
	if vals[1] != 5 {
		t.Fatalf("range gather vals = %v", vals)
	}
}

func TestDropBelow(t *testing.T) {
	w := NewWorkRow(6)
	w.Scatter([]int{0, 1, 2, 3}, []float64{0.01, -0.5, 0.02, 3})
	n := w.DropBelow(0, 6, 0.1, 2) // protect index 2 even though tiny
	if n != 1 {
		t.Fatalf("dropped %d, want 1", n)
	}
	if w.Has(0) {
		t.Error("index 0 should have been dropped")
	}
	if !w.Has(2) {
		t.Error("protected index 2 was dropped")
	}
	if !w.Has(1) || !w.Has(3) {
		t.Error("large entries were dropped")
	}
}

func TestKeepLargest(t *testing.T) {
	w := NewWorkRow(10)
	w.Scatter([]int{0, 1, 2, 3, 4}, []float64{5, -4, 3, -2, 1})
	dropped := w.KeepLargest(0, 10, 2, -1)
	if dropped != 3 {
		t.Fatalf("dropped %d, want 3", dropped)
	}
	if !w.Has(0) || !w.Has(1) {
		t.Error("two largest entries should survive")
	}
	if w.Has(2) || w.Has(3) || w.Has(4) {
		t.Error("smaller entries should have been dropped")
	}
}

func TestKeepLargestProtected(t *testing.T) {
	w := NewWorkRow(10)
	w.Scatter([]int{0, 1, 2}, []float64{5, 4, 0.001})
	w.KeepLargest(0, 10, 1, 2)
	if !w.Has(2) {
		t.Error("protected diagonal dropped")
	}
	if !w.Has(0) {
		t.Error("largest entry dropped")
	}
	if w.Has(1) {
		t.Error("entry 1 should have been dropped (m=1 excluding protected)")
	}
}

func TestKeepLargestRange(t *testing.T) {
	w := NewWorkRow(10)
	w.Scatter([]int{0, 1, 5, 6}, []float64{100, 200, 1, 2})
	// Only restrict within [5,10); the large low entries must be untouched.
	w.KeepLargest(5, 10, 1, -1)
	if !w.Has(0) || !w.Has(1) {
		t.Error("entries outside range were dropped")
	}
	if w.Has(5) {
		t.Error("smaller in-range entry should drop")
	}
	if !w.Has(6) {
		t.Error("larger in-range entry should survive")
	}
}

func TestKeepLargestDeterministicTies(t *testing.T) {
	w := NewWorkRow(6)
	w.Scatter([]int{4, 2, 0}, []float64{1, 1, 1})
	w.KeepLargest(0, 6, 2, -1)
	// Ties break toward smaller column index.
	if !w.Has(0) || !w.Has(2) || w.Has(4) {
		t.Errorf("tie-break wrong: has0=%v has2=%v has4=%v", w.Has(0), w.Has(2), w.Has(4))
	}
}

// Property: after arbitrary operations, Indices() is sorted, duplicate-free
// and matches Has().
func TestWorkRowIndicesConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(40)
		w := NewWorkRow(n)
		ref := make(map[int]float64)
		for op := 0; op < 100; op++ {
			j := r.Intn(n)
			switch r.Intn(4) {
			case 0:
				v := r.NormFloat64()
				w.Add(j, v)
				ref[j] += v
			case 1:
				v := r.NormFloat64()
				w.Set(j, v)
				ref[j] = v
			case 2:
				w.Drop(j)
				delete(ref, j)
			case 3:
				// no-op read
				if w.Get(j) != ref[j] && !(ref[j] == 0 && !w.Has(j)) {
					if math.Abs(w.Get(j)-ref[j]) > 1e-12 {
						return false
					}
				}
			}
		}
		idx := w.Indices()
		if len(idx) != len(ref) {
			return false
		}
		prev := -1
		for _, j := range idx {
			if j <= prev {
				return false
			}
			prev = j
			if _, ok := ref[j]; !ok {
				return false
			}
			if math.Abs(w.Get(j)-ref[j]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: KeepLargest keeps exactly min(m, count) in-range entries and
// they are the largest by magnitude.
func TestKeepLargestProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(50)
		w := NewWorkRow(n)
		for j := 0; j < n; j++ {
			if r.Float64() < 0.5 {
				w.Set(j, r.NormFloat64())
			}
		}
		lo, hi := 0, n
		m := r.Intn(6)
		// Record magnitudes in range before.
		var mags []float64
		for j := lo; j < hi; j++ {
			if w.Has(j) {
				mags = append(mags, math.Abs(w.Get(j)))
			}
		}
		w.KeepLargest(lo, hi, m, -1)
		kept := 0
		minKept := math.Inf(1)
		for j := lo; j < hi; j++ {
			if w.Has(j) {
				kept++
				if a := math.Abs(w.Get(j)); a < minKept {
					minKept = a
				}
			}
		}
		want := m
		if len(mags) < m {
			want = len(mags)
		}
		if kept != want {
			return false
		}
		// Count entries strictly larger than the smallest kept one: must be < m.
		larger := 0
		for _, a := range mags {
			if a > minKept {
				larger++
			}
		}
		return kept == 0 || larger < kept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refKeepLargest is KeepLargest as it was before it became a selection: a
// full sort of the candidates, descending by magnitude, ties toward the
// smaller column. It is the reference the selection is held to.
func refKeepLargest(w *WorkRow, lo, hi, m int, keep int) int {
	var cand []int
	for _, j := range w.idx {
		if w.Has(j) && j >= lo && j < hi && j != keep {
			cand = append(cand, j)
		}
	}
	if len(cand) <= m {
		return 0
	}
	slices.SortFunc(cand, func(x, y int) int {
		ax, ay := math.Abs(w.val[x]), math.Abs(w.val[y])
		switch {
		case ax > ay:
			return -1
		case ax < ay:
			return 1
		default:
			return x - y
		}
	})
	dropped := 0
	for _, j := range cand[m:] {
		w.Drop(j)
		dropped++
	}
	return dropped
}

// refTail is the row tail as six walks over the touched positions — two
// DropBelow, two KeepLargest, two Gather — then the reset: what Tail does
// in one.
func refTail(w *WorkRow, split int, tol float64, mLo, mHi, keep int, fill float64) (lc []int, lv []float64, hc []int, hv []float64, dLo, dHiTol, dHiCut int, filled bool) {
	n := w.Len()
	dLo = w.DropBelow(0, split, tol, -1)
	if mLo > 0 {
		dLo += refKeepLargest(w, 0, split, mLo, -1)
	}
	dHiTol = w.DropBelow(split, n, tol, keep)
	if mHi > 0 {
		dHiCut = refKeepLargest(w, split, n, mHi, keep)
	}
	if !w.Has(keep) {
		w.Set(keep, fill)
		filled = true
	}
	lc, lv = w.Gather(0, split, nil, nil)
	hc, hv = w.Gather(split, n, nil, nil)
	w.Reset()
	return
}

// tailCase is one generated row and the tail's parameters. ops are
// applied in order: Set(col, val), or Drop(col) where drop is set, so a
// row has touched-but-unmarked positions like one that met the 1st
// dropping rule.
type tailCase struct {
	n           int
	ops         []tailOp
	split, keep int
	tol, fill   float64
	mLo, mHi    int
}

type tailOp struct {
	col  int
	val  float64
	drop bool
}

func (c *tailCase) load(w *WorkRow) (hasNaN bool) {
	for _, op := range c.ops {
		if op.drop {
			w.Drop(op.col)
		} else {
			w.Set(op.col, op.val)
			hasNaN = hasNaN || math.IsNaN(op.val)
		}
	}
	return hasNaN
}

// tailValues is what generated rows draw from: few magnitudes, so ties are
// the rule; both zeros; values either side of the tolerances used.
var tailValues = []float64{0, math.Copysign(0, -1), 1, -1, 1, 2, -2, 0.5, -0.5, 0.25, 1e-3, -1e-3, 3, math.NaN()}

// checkTail runs Tail and the reference on the same row. Without a NaN the
// two must agree to the bit; with one the order is not total and only
// termination, bounds and the bookkeeping are required.
func checkTail(t *testing.T, c *tailCase) {
	t.Helper()
	w, ref := NewWorkRow(c.n), NewWorkRow(c.n)
	hasNaN := c.load(w)
	c.load(ref)
	marked := w.NNZ()
	lo, hi, dLo, dTol, dCut, filled := w.Tail(c.split, c.tol, c.mLo, c.mHi, c.keep, c.fill)
	dHi := dTol + dCut
	lo, hi = slices.Clone(lo), slices.Clone(hi) // PoisonClean scribbles over the row's buffer
	w.PoisonClean()                             // panics unless Tail left the row reset
	created := 0
	if filled {
		created = 1
	}
	if len(lo)+len(hi)+dLo+dHi != marked+created {
		t.Fatalf("%d+%d kept and %d+%d dropped of %d marked, %d created", len(lo), len(hi), dLo, dHi, marked, created)
	}
	for k, e := range lo {
		if e.Col < 0 || e.Col >= c.split || k > 0 && lo[k-1].Col >= e.Col {
			t.Fatalf("low part %v: not increasing columns below %d", lo, c.split)
		}
	}
	for k, e := range hi {
		if e.Col < c.split || e.Col >= c.n || k > 0 && hi[k-1].Col >= e.Col {
			t.Fatalf("high part %v: not increasing columns in [%d,%d)", hi, c.split, c.n)
		}
	}
	if hasNaN {
		return
	}
	lc, lv, hc, hv, rdLo, rdTol, rdCut, rFilled := refTail(ref, c.split, c.tol, c.mLo, c.mHi, c.keep, c.fill)
	if dLo != rdLo || dTol != rdTol || dCut != rdCut || filled != rFilled {
		t.Fatalf("dropped %d/%d+%d filled %v, reference %d/%d+%d %v", dLo, dTol, dCut, filled, rdLo, rdTol, rdCut, rFilled)
	}
	same := func(got []Ent, cols []int, vals []float64) bool {
		if len(got) != len(cols) {
			return false
		}
		for k, e := range got {
			if e.Col != cols[k] || math.Float64bits(e.Val) != math.Float64bits(vals[k]) {
				return false
			}
		}
		return true
	}
	if !same(lo, lc, lv) || !same(hi, hc, hv) {
		t.Fatalf("case %+v:\nTail      %v | %v\nreference %v %v | %v %v", *c, lo, hi, lc, lv, hc, hv)
	}
}

// tailCaseFrom decodes a case from bytes (the fuzz target's input, and a
// compact way to write the seed corpus): a header of n, split, keep, the
// two caps and the tolerance, then (column, value) byte pairs.
func tailCaseFrom(data []byte) *tailCase {
	if len(data) < 6 {
		return nil
	}
	c := &tailCase{n: 2 + int(data[0])%62}
	c.split = int(data[1]) % (c.n + 1)
	c.keep = int(data[2]) % c.n
	c.mLo = int(data[3])%8 - 1
	c.mHi = int(data[4])%8 - 1
	c.tol = []float64{0, 0.3, 1, 1.5}[int(data[5])%4]
	c.fill = 0.125
	for k := 6; k+1 < len(data); k += 2 {
		v := int(data[k+1])
		c.ops = append(c.ops, tailOp{int(data[k]) % c.n, tailValues[v%len(tailValues)], v >= 240})
	}
	return c
}

// TestRowTailMatchesSortReference: the selection-based tail against the
// sort-based one on generated rows — repeated magnitudes, both zeros,
// explicit zeros, the protected position on either side of the split and
// present or absent, and every cap from none to one more than there are
// candidates.
func TestRowTailMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 3000; trial++ {
		c := &tailCase{n: 2 + r.Intn(60), fill: 0.125}
		c.split = r.Intn(c.n + 1)
		c.keep = r.Intn(c.n)
		c.tol = []float64{0, 0.3, 1, 1.5}[r.Intn(4)]
		nLo, nHi := 0, 0
		for k, nOps := 0, r.Intn(2*c.n); k < nOps; k++ {
			col := r.Intn(c.n)
			val := tailValues[r.Intn(len(tailValues)-1)] // all but the NaN
			c.ops = append(c.ops, tailOp{col, val, r.Intn(8) == 0})
			if col < c.split {
				nLo++
			} else {
				nHi++
			}
		}
		// Caps around the candidate counts (an upper bound on them is close
		// enough: the exact counts depend on the tolerance).
		caps := func(k int) int { return []int{0, 1, k - 1, k, k + 1, r.Intn(k + 2)}[r.Intn(6)] }
		c.mLo, c.mHi = caps(nLo), caps(nHi)
		checkTail(t, c)
	}
}

// TestRowTailNaNTerminates: a NaN makes the selection order partial; the
// tail must still end, stay in bounds and account for every entry.
func TestRowTailNaNTerminates(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		c := &tailCase{n: 40, split: 17, keep: 17 + r.Intn(23), tol: 0.3, fill: 0.125, mLo: 1 + r.Intn(4), mHi: 1 + r.Intn(6)}
		for col := 0; col < c.n; col++ {
			val := tailValues[r.Intn(len(tailValues))]
			if r.Intn(3) == 0 {
				val = math.NaN()
			}
			c.ops = append(c.ops, tailOp{col, val, false})
		}
		checkTail(t, c)
	}
}

// FuzzRowTail is TestRowTailMatchesSortReference over fuzzer-made rows.
func FuzzRowTail(f *testing.F) {
	f.Add([]byte{10, 5, 7, 3, 4, 1, 0, 2, 1, 3, 2, 2, 6, 5, 7, 7, 8, 9, 9, 4})
	f.Add([]byte{40, 20, 3, 2, 2, 0, 1, 2, 2, 2, 3, 3, 25, 2, 26, 3, 27, 2, 28, 250})      // ties; keep below the split
	f.Add([]byte{6, 0, 5, 0, 1, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4})                          // everything above the split
	f.Add([]byte{6, 6, 1, 1, 0, 3, 0, 13, 1, 13, 2, 13, 3, 2, 4, 5})                       // NaNs
	f.Add([]byte{62, 31, 40, 7, 7, 1, 30, 0, 31, 1, 32, 2, 33, 244, 33, 6, 1, 6, 2, 9})    // a dropped position set again
	f.Add([]byte{20, 10, 15, 1, 1, 3, 15, 10, 16, 10, 17, 10, 18, 10, 2, 10, 3, 10, 4, 7}) // all below the tolerance
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := tailCaseFrom(data); c != nil {
			checkTail(t, c)
		}
	})
}
