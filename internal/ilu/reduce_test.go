package ilu

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

// reduceFixture: a 5×5 matrix whose rows 0 and 1 form an independent set
// (a01 = a10 = 0), mimicking one level of the interface factorization.
//
//	[ 4  0  1  2  0 ]
//	[ 0  5  0  1  3 ]
//	[ 1  2  6  0  0 ]
//	[ 2  0  0  7  1 ]
//	[ 0  3  0  1  8 ]
func reduceFixture() *sparse.CSR {
	return sparse.FromDense([][]float64{
		{4, 0, 1, 2, 0},
		{0, 5, 0, 1, 3},
		{1, 2, 6, 0, 0},
		{2, 0, 0, 7, 1},
		{0, 3, 0, 1, 8},
	})
}

func pivotRowsFor(t *testing.T, a *sparse.CSR, pivots []int, tau float64, m int) map[int]*URow {
	t.Helper()
	var st Stats
	out := make(map[int]*URow)
	for _, i := range pivots {
		cols, vals := a.Row(i)
		r, err := NewScratch(0).FactorPivotRow(i, cols, vals, tau, m, 0, &st)
		if err != nil {
			t.Fatal(err)
		}
		rr := r
		out[i] = &rr
	}
	return out
}

func TestFactorPivotRowBasic(t *testing.T) {
	a := reduceFixture()
	rows := pivotRowsFor(t, a, []int{0, 1}, 0, 0)
	u0 := rows[0]
	if u0.Diag != 4 {
		t.Fatalf("u0 diag = %v, want 4", u0.Diag)
	}
	if len(u0.Cols) != 2 || u0.Cols[0] != 2 || u0.Cols[1] != 3 {
		t.Fatalf("u0 cols = %v, want [2 3]", u0.Cols)
	}
	if u0.Vals[0] != 1 || u0.Vals[1] != 2 {
		t.Fatalf("u0 vals = %v", u0.Vals)
	}
}

func TestFactorPivotRowThresholdAndCap(t *testing.T) {
	var st Stats
	r, err := NewScratch(0).FactorPivotRow(0,
		[]int{0, 2, 3, 4},
		[]float64{10, 0.001, 5, 3},
		0.01, // drops the 0.001
		1,    // keeps only the 5
		0, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cols) != 1 || r.Cols[0] != 3 || r.Vals[0] != 5 {
		t.Fatalf("kept %v/%v, want col 3 val 5", r.Cols, r.Vals)
	}
	if st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", st.Dropped)
	}
}

func TestFactorPivotRowMissingDiagonal(t *testing.T) {
	var st Stats
	if _, err := NewScratch(0).FactorPivotRow(0, []int{1}, []float64{1}, 0, 0, 0, &st); err == nil {
		t.Error("missing diagonal accepted")
	}
}

func TestFactorPivotRowZeroPivotFixed(t *testing.T) {
	var st Stats
	r, err := NewScratch(0).FactorPivotRow(0, []int{0, 1}, []float64{0, 2}, 0.5, 0, 0, &st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Diag == 0 {
		t.Error("zero pivot not replaced")
	}
	if st.FixedPivot != 1 {
		t.Errorf("FixedPivot = %d, want 1", st.FixedPivot)
	}
}

// TestEliminateRowExactSchur checks Algorithm 2 with no dropping against
// the dense Schur complement.
func TestEliminateRowExactSchur(t *testing.T) {
	a := reduceFixture()
	n := a.N
	pivots := pivotRowsFor(t, a, []int{0, 1}, 0, 0)
	s := NewScratch(n)
	var st Stats

	d := a.Dense()
	for i := 2; i < n; i++ {
		aCols, aVals := a.Row(i)
		lC, lV, rC, rV := s.EliminateRow(i, aCols, aVals, nil, nil,
			func(k int) *URow { return pivots[k] }, 0, 2, 0, 0, 0, &st)

		// Expected multipliers and Schur row.
		want := make([]float64, n)
		copy(want, d[i])
		for k := 0; k < 2; k++ {
			lik := want[k] / d[k][k]
			want[k] = lik
			for j := 2; j < n; j++ {
				want[j] -= lik * d[k][j]
			}
		}
		got := make([]float64, n)
		for kk, j := range lC {
			got[j] = lV[kk]
		}
		for kk, j := range rC {
			got[j] = rV[kk]
		}
		for j := 0; j < n; j++ {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

// TestEliminateRowSecondLevel verifies L-row merging across levels: a row
// carries multipliers from level 0 and gains more at level 1.
func TestEliminateRowSecondLevel(t *testing.T) {
	a := reduceFixture()
	n := a.N
	s := NewScratch(n)
	var st Stats

	// Level 0: pivots {0,1}; eliminate from rows 2,3,4.
	piv0 := pivotRowsFor(t, a, []int{0, 1}, 0, 0)
	type rowState struct {
		lC []int
		lV []float64
		rC []int
		rV []float64
	}
	state := make(map[int]rowState)
	for i := 2; i < n; i++ {
		aCols, aVals := a.Row(i)
		lC, lV, rC, rV := s.EliminateRow(i, aCols, aVals, nil, nil,
			func(k int) *URow { return piv0[k] }, 0, 2, 0, 0, 0, &st)
		state[i] = rowState{lC, lV, rC, rV}
	}

	// Level 1: rows 2 and 3 are now independent iff reduced a23/a32 = 0;
	// fixture has a23 = a32 = 0 and elimination adds nothing there
	// (u0 row: cols {2,3}; row 2 gains fill at 3 via pivot 0: -l20·u03 =
	// -(1/4)·2 = -0.5, so 2–3 becomes dependent). Use pivot {2} alone.
	pr2 := state[2]
	var u2 URow
	{
		cols := append([]int(nil), pr2.rC...)
		vals := append([]float64(nil), pr2.rV...)
		r, err := NewScratch(0).FactorPivotRow(2, cols, vals, 0, 0, 0, &st)
		if err != nil {
			t.Fatal(err)
		}
		u2 = r
	}
	// Eliminate pivot 2 from row 3 with its accumulated L row.
	pr3 := state[3]
	lC, lV, rC, rV := s.EliminateRow(3, pr3.rC, pr3.rV, pr3.lC, pr3.lV,
		func(k int) *URow {
			if k == 2 {
				return &u2
			}
			return nil
		}, 2, 3, 0, 0, 0, &st)

	// Dense reference: LU of the full 5×5; row 3 of the combined L\U array
	// holds the multipliers (cols 0..2) and the twice-reduced row (3..4).
	lu := denseLU(reduceFixture().Dense())
	want := make([]float64, n)
	copy(want, lu[3])
	got := make([]float64, n)
	for kk, j := range lC {
		got[j] = lV[kk]
	}
	for kk, j := range rC {
		got[j] = rV[kk]
	}
	for j := 0; j < n; j++ {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Fatalf("col %d: got %v, want %v", j, got[j], want[j])
		}
	}
}

// denseLU computes the in-place Doolittle LU of a dense matrix (no
// pivoting) and returns the combined L\U array.
func denseLU(d [][]float64) [][]float64 {
	n := len(d)
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			d[i][k] /= d[k][k]
			for j := k + 1; j < n; j++ {
				d[i][j] -= d[i][k] * d[k][j]
			}
		}
	}
	return d
}

func TestEliminateRowILUTStarCap(t *testing.T) {
	// A row with many reduced entries: kcap=1, m=2 must leave at most 2
	// entries (plus diagonal) in the reduced part.
	n := 10
	b := sparse.NewBuilder(n, n)
	// Pivot row 0 couples to everything.
	b.Add(0, 0, 2)
	for j := 2; j < n; j++ {
		b.Add(0, j, float64(j))
	}
	// Row 1 couples to pivot 0 and has its own entries.
	b.Add(1, 0, 1)
	b.Add(1, 1, 5)
	b.Add(1, 5, 1)
	a := b.Build()

	var st Stats
	pivots := pivotRowsFor(t, a, []int{0}, 0, 0)
	s := NewScratch(n)
	aCols, aVals := a.Row(1)
	_, _, rC, _ := s.EliminateRow(1, aCols, aVals, nil, nil,
		func(k int) *URow { return pivots[k] }, 0, 1, 0, 2, 1, &st)
	// Reduced part: diagonal 1 plus at most kcap·m = 2 others.
	if len(rC) > 3 {
		t.Fatalf("ILUT* cap violated: %d reduced entries", len(rC))
	}
	hasDiag := false
	for _, j := range rC {
		if j == 1 {
			hasDiag = true
		}
	}
	if !hasDiag {
		t.Fatal("diagonal dropped from reduced row")
	}

	// Plain ILUT (kcap=0) keeps everything above threshold.
	s2 := NewScratch(n)
	_, _, rC2, _ := s2.EliminateRow(1, aCols, aVals, nil, nil,
		func(k int) *URow { return pivots[k] }, 0, 1, 0, 2, 0, &st)
	if len(rC2) <= len(rC) {
		t.Fatalf("plain ILUT should keep more reduced entries: %d vs %d", len(rC2), len(rC))
	}
}

func TestEliminateRowFirstDroppingRule(t *testing.T) {
	// The multiplier w_k = a_ik/u_kk falls below tau and must be dropped,
	// leaving the row unchanged in the reduced part.
	a := sparse.FromDense([][]float64{
		{100, 0, 7},
		{0.5, 3, 0},
		{0, 0, 1},
	})
	var st Stats
	pivots := pivotRowsFor(t, a, []int{0}, 0, 0)
	s := NewScratch(3)
	aCols, aVals := a.Row(1)
	lC, _, rC, rV := s.EliminateRow(1, aCols, aVals, nil, nil,
		func(k int) *URow { return pivots[k] }, 0, 1, 0.1, 0, 0, &st)
	// multiplier = 0.5/100 = 0.005 < 0.1 → dropped; L empty.
	if len(lC) != 0 {
		t.Fatalf("L part = %v, want empty", lC)
	}
	if len(rC) != 1 || rC[0] != 1 || rV[0] != 3 {
		t.Fatalf("reduced row = %v/%v, want diag only", rC, rV)
	}
	if st.Dropped == 0 {
		t.Error("drop not counted")
	}
}

func TestEliminateRowPanicsOnDependentPivot(t *testing.T) {
	// A pivot whose U row reaches inside the independent range indicates
	// a broken independent set; EliminateRow must refuse.
	var st Stats
	u := &URow{Col: 0, Diag: 1, Cols: []int{1}, Vals: []float64{1}}
	s := NewScratch(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.EliminateRow(2, []int{0, 2}, []float64{1, 1}, nil, nil,
		func(k int) *URow { return u }, 0, 2, 0, 0, 0, &st)
}

func TestEliminateRowMissingPivotPanics(t *testing.T) {
	var st Stats
	s := NewScratch(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.EliminateRow(2, []int{0, 2}, []float64{1, 1}, nil, nil,
		func(k int) *URow { return nil }, 0, 1, 0, 0, 0, &st)
}
