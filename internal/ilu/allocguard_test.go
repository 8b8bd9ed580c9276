//go:build !race

// Alloc-regression guards for the row kernels (ISSUE 8): the steady-state
// factorization loop must allocate zero bytes per row. Each guard runs a
// kernel against a reused Scratch exactly the way core's factorization
// loop does — discarding the arena between iterations so the chunks are
// reused in place — and pins AllocsPerRun at zero. The file is excluded
// under the race detector, whose instrumentation allocates.

package ilu

import (
	"testing"
)

// guardFixture is a small elimination problem: eight factored pivots in
// the pivot range [0, 8) whose fill lands in [8, 32), and a row with
// entries on both sides of the split.
type guardFixture struct {
	pivots []URow
	aCols  []int
	aVals  []float64
	lCols  []int
	lVals  []float64
}

func newGuardFixture() *guardFixture {
	f := &guardFixture{}
	f.pivots = make([]URow, 8)
	for k := range f.pivots {
		f.pivots[k] = URow{
			Col:  k,
			Diag: 2 + float64(k)*0.125,
			Cols: []int{8 + k, 16 + k, 24 + k},
			Vals: []float64{0.5, -0.25, 0.75},
		}
	}
	f.aCols = []int{0, 3, 5, 9, 12, 20}
	f.aVals = []float64{1.5, -2.0, 0.75, 3.0, -1.25, 0.5}
	f.lCols = []int{1, 4}
	f.lVals = []float64{0.125, -0.5}
	return f
}

func (f *guardFixture) pivot(k int) *URow { return &f.pivots[k] }

// TestAllocsEliminateRowSeq guards the sequential kernels: the
// queue-driven sweep ending in the L/reduced split (phase 1b of
// core.Factor) and in the fused interior row (phase 1a).
func TestAllocsEliminateRowSeq(t *testing.T) {
	f := newGuardFixture()
	s := NewScratch(64)
	st := &Stats{}
	// The same row seen as interior row 8: its diagonal at 8, every pivot
	// below it factored.
	intCols := []int{0, 3, 5, 8, 12, 20}
	var sink int
	avg := testing.AllocsPerRun(100, func() {
		lC, lV, rC, _ := s.EliminateRowSeq(9, f.aCols, f.aVals, f.pivot, 0, 8, 1e-3, 4, 2, st)
		iC, _, urow := s.FactorInteriorRow(8, intCols, f.aVals, f.pivot, 0, 1e-3, 4, 0, st)
		sink = len(lC) + len(lV) + len(rC) + len(iC) + len(urow.Cols)
		s.out.discardAll()
	})
	if sink == 0 {
		t.Fatal("the kernels returned nothing inside the guard loop")
	}
	if avg > 0 {
		t.Errorf("EliminateRowSeq+FactorInteriorRow allocate %.2f objects/row, want 0", avg)
	}
}

// TestAllocsEliminateRow guards one phase-2 level of core.Factor: the
// increasing-column sweep with an accumulated L merge, then the reduced
// row factored as a pivot.
func TestAllocsEliminateRow(t *testing.T) {
	f := newGuardFixture()
	s := NewScratch(64)
	st := &Stats{}
	var sink int
	avg := testing.AllocsPerRun(100, func() {
		lC, lV, rC, rV := s.EliminateRow(9, f.aCols, f.aVals, f.lCols, f.lVals, f.pivot, 0, 8, 1e-3, 4, 2, st)
		urow, err := s.FactorPivotRow(9, rC, rV, 1e-3, 4, 0, st)
		if err != nil {
			sink = -1
			return
		}
		sink = len(lC) + len(lV) + len(urow.Cols)
		s.out.discardAll()
	})
	if sink < 0 {
		t.Fatal("FactorPivotRow returned an error inside the guard loop")
	}
	if avg > 0 {
		t.Errorf("EliminateRow+FactorPivotRow allocate %.2f objects/row, want 0", avg)
	}
}

// TestAllocsEliminateRowStatic guards the pattern-restricted ILU(0)
// kernel the same way.
func TestAllocsEliminateRowStatic(t *testing.T) {
	f := newGuardFixture()
	s := NewScratch(64)
	st := &Stats{}
	var sink int
	avg := testing.AllocsPerRun(100, func() {
		lC, lV, rC, rV := s.EliminateRowStatic(9, f.aCols, f.aVals, f.lCols, f.lVals, f.pivot, 0, 8, st)
		sink = len(lC) + len(lV) + len(rC) + len(rV)
		s.out.discardAll()
	})
	_ = sink
	if avg > 0 {
		t.Errorf("EliminateRowStatic allocates %.2f objects/row, want 0", avg)
	}
}
