package ilu

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

// TestEliminateRowSeqExactPartialElimination verifies the phase-1 kernel
// against dense partial Gaussian elimination: eliminating a *sequential*
// pivot block (with intra-block fill) from a trailing row.
func TestEliminateRowSeqExactPartialElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 10
	blk := 6 // pivot block [0, 6)
	a := matgen.RandomSPDPattern(n, 4, 9)
	d := a.Dense()
	_ = rng

	// Build the pivot block's U rows by dense LU restricted to the block,
	// keeping couplings to the trailing columns.
	lu := make([][]float64, n)
	for i := range lu {
		lu[i] = append([]float64(nil), d[i]...)
	}
	for k := 0; k < blk; k++ {
		for i := k + 1; i < blk; i++ {
			if lu[i][k] == 0 {
				continue
			}
			lu[i][k] /= lu[k][k]
			for j := k + 1; j < n; j++ {
				lu[i][j] -= lu[i][k] * lu[k][j]
			}
		}
	}
	var st Stats
	pivots := make([]*URow, blk)
	for k := 0; k < blk; k++ {
		var cols []int
		var vals []float64
		cols = append(cols, k)
		vals = append(vals, lu[k][k])
		for j := k + 1; j < n; j++ {
			if lu[k][j] != 0 {
				cols = append(cols, j)
				vals = append(vals, lu[k][j])
			}
		}
		r, err := NewScratch(0).FactorPivotRow(k, cols, vals, 0, 0, 0, &st)
		if err != nil {
			t.Fatal(err)
		}
		rr := r
		pivots[k] = &rr
	}

	// Eliminate the block from row 7 via the kernel.
	s := NewScratch(n)
	aCols, aVals := a.Row(7)
	lC, lV, rC, rV := s.EliminateRowSeq(7, aCols, aVals,
		func(k int) *URow { return pivots[k] }, 0, blk, 0, 0, 0, &st)

	// Dense reference: eliminate pivots 0..5 from row 7 (with fill chasing).
	want := append([]float64(nil), d[7]...)
	for k := 0; k < blk; k++ {
		if want[k] == 0 {
			continue
		}
		want[k] /= lu[k][k]
		for j := k + 1; j < n; j++ {
			want[j] -= want[k] * lu[k][j]
		}
	}
	got := make([]float64, n)
	for i, c := range lC {
		got[c] = lV[i]
	}
	for i, c := range rC {
		got[c] = rV[i]
	}
	for j := 0; j < n; j++ {
		if math.Abs(got[j]-want[j]) > 1e-10 {
			t.Fatalf("col %d: got %v, want %v", j, got[j], want[j])
		}
	}
}

// TestEliminateRowSeqChasesFill constructs a case where the row has no
// entry at pivot 1 initially, but elimination of pivot 0 creates one; the
// heap-driven kernel must then eliminate pivot 1 too (EliminateRow's
// single sweep would not).
func TestEliminateRowSeqChasesFill(t *testing.T) {
	// Pivots: u0 = [2, 0, 1(at col1? no)] ... construct explicitly:
	// u0: diag 2, coupling to col 1 (value 4) and col 2 (value 6)
	// u1: diag 3, coupling to col 2 (value 9)
	// row 2: entries at col 0 (value 2) and col 2 (diag 1); no entry at 1.
	var st Stats
	u0 := &URow{Col: 0, Diag: 2, Cols: []int{1, 2}, Vals: []float64{4, 6}}
	u1 := &URow{Col: 1, Diag: 3, Cols: []int{2}, Vals: []float64{9}}
	pivots := []*URow{u0, u1}
	s := NewScratch(3)
	lC, lV, rC, rV := s.EliminateRowSeq(2,
		[]int{0, 2}, []float64{2, 1},
		func(k int) *URow { return pivots[k] }, 0, 2, 0, 0, 0, &st)
	// Multiplier l20 = 2/2 = 1; fill at col1 = 0 − 1·4 = −4; at col2 = 1 − 1·6 = −5.
	// Then l21 = −4/3; col2 = −5 − (−4/3)·9 = −5 + 12 = 7.
	wantL := map[int]float64{0: 1, 1: -4.0 / 3.0}
	for i, c := range lC {
		if math.Abs(lV[i]-wantL[c]) > 1e-12 {
			t.Fatalf("L col %d = %v, want %v", c, lV[i], wantL[c])
		}
		delete(wantL, c)
	}
	if len(wantL) != 0 {
		t.Fatalf("missing L entries: %v (got cols %v)", wantL, lC)
	}
	if len(rC) != 1 || rC[0] != 2 || math.Abs(rV[0]-7) > 1e-12 {
		t.Fatalf("reduced row = %v/%v, want [2]/[7]", rC, rV)
	}
}

// TestEliminateRowSeqDroppingRules checks the 1st and 3rd rules behave
// like EliminateRow's.
func TestEliminateRowSeqDroppingRules(t *testing.T) {
	var st Stats
	u0 := &URow{Col: 0, Diag: 100, Cols: []int{2}, Vals: []float64{5}}
	s := NewScratch(3)
	// Multiplier 0.5/100 = 0.005 < tau=0.1 → dropped by rule 1.
	lC, _, rC, rV := s.EliminateRowSeq(1,
		[]int{0, 1}, []float64{0.5, 3},
		func(k int) *URow { return u0 }, 0, 1, 0.1, 0, 0, &st)
	if len(lC) != 0 {
		t.Fatalf("L = %v, want empty (rule 1)", lC)
	}
	if len(rC) != 1 || rV[0] != 3 {
		t.Fatalf("reduced = %v/%v", rC, rV)
	}

	// kcap bounds the reduced part.
	u0b := &URow{Col: 0, Diag: 1, Cols: []int{2, 3, 4, 5, 6}, Vals: []float64{9, 8, 7, 6, 5}}
	s2 := NewScratch(7)
	_, _, rC2, _ := s2.EliminateRowSeq(1,
		[]int{0, 1}, []float64{1, 2},
		func(k int) *URow { return u0b }, 0, 1, 0, 1, 2, &st)
	// reduced cap = kcap·m = 2 plus the protected diagonal 1.
	if len(rC2) > 3 {
		t.Fatalf("reduced part %v exceeds kcap·m + diag", rC2)
	}
	hasDiag := false
	for _, c := range rC2 {
		if c == 1 {
			hasDiag = true
		}
	}
	if !hasDiag {
		t.Fatal("diagonal dropped")
	}
}

// TestEliminateRowSeqMissingPivot checks the defensive panic.
func TestEliminateRowSeqMissingPivot(t *testing.T) {
	var st Stats
	s := NewScratch(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.EliminateRowSeq(1, []int{0, 1}, []float64{1, 1},
		func(k int) *URow { return nil }, 0, 1, 0, 0, 0, &st)
}
