package ilu

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

// TestEliminateRowWithoutLevelPivotIsIdentity pins the invariant the
// interface phase's level loop relies on when it leaves a row that
// references no pivot of the level alone: such a row, fed to EliminateRow
// or EliminateRowStatic, comes back bit for bit with no counter moved —
// nothing is eliminated, and the dropping rules and the split it already
// went through (same tolerance, same caps) reproduce it.
//
// The rows are made the way the two-phase driver makes them, over one
// small instance of every matgen generator: the first half of a matrix is
// a sequentially factored block removed with EliminateRowSeq; then one
// independent set of the reduced rows is factored and removed with
// EliminateRow. Unfactored columns live at n+j and elimination ids below
// n, so a pivot range inside [0, n) beyond the ids in use touches no row.
func TestEliminateRowWithoutLevelPivotIsIdentity(t *testing.T) {
	for _, z := range kernelZoo() {
		name, a := z.name, z.a
		for _, par := range []Params{{M: 4, Tau: 1e-2, K: 2}, {M: 4, Tau: 1e-2}, {}} {
			n, h := a.N, a.N/2
			s := NewScratch(2 * n)
			var st Stats
			noPivot := func(k int) *URow {
				t.Fatalf("%s: pivot %d requested by a row that references no pivot", name, k)
				return nil
			}
			type row struct {
				tau            float64
				lc, rc         []int
				lv, rv         []float64
				factored, seen bool
			}
			// checkIdentity feeds row i back with the untouched pivot range
			// [nl, nl1).
			checkIdentity := func(stage string, i int, r *row, nl, nl1 int) {
				t.Helper()
				var moved Stats
				lc, lv, rc, rv := s.EliminateRow(n+i, r.rc, r.rv, r.lc, r.lv, noPivot, nl, nl1, r.tau, par.M, par.K, &moved)
				if !sameRow(lc, lv, r.lc, r.lv) || !sameRow(rc, rv, r.rc, r.rv) || moved != (Stats{}) {
					t.Fatalf("%s %+v: %s row %d changed under EliminateRow (stats %+v)", name, par, stage, i, moved)
				}
				lc, lv, rc, rv = s.EliminateRowStatic(n+i, r.rc, r.rv, r.lc, r.lv, noPivot, nl, nl1, &moved)
				if !sameRow(lc, lv, r.lc, r.lv) || !sameRow(rc, rv, r.rc, r.rv) || moved != (Stats{}) {
					t.Fatalf("%s %+v: %s row %d changed under EliminateRowStatic (stats %+v)", name, par, stage, i, moved)
				}
			}

			// The sequential block [0, h): rows h.. keep their unfactored
			// columns at n+j.
			block := make([]URow, h)
			blockPivot := func(k int) *URow { return &block[k] }
			enc := func(i int) ([]int, []float64) {
				cols, vals := a.Row(i)
				ec, ev := append([]int(nil), cols...), append([]float64(nil), vals...)
				for k, j := range ec {
					if j >= h {
						ec[k] = n + j
					}
				}
				return ec, ev
			}
			rows := make([]row, n)
			for i := 0; i < n; i++ {
				tau := par.Tau * a.RowNorm2(i)
				ec, ev := enc(i)
				if i < h {
					_, _, rc, rv := s.EliminateRowSeq(i, ec, ev, blockPivot, 0, i, tau, par.M, 0, &st)
					u, err := s.FactorPivotRow(i, rc, rv, tau, par.M, 0, &st)
					if err != nil {
						t.Fatal(err)
					}
					block[i] = u
					continue
				}
				r := &rows[i]
				r.tau = tau
				r.lc, r.lv, r.rc, r.rv = s.EliminateRowSeq(n+i, ec, ev, blockPivot, 0, h, tau, par.M, par.K, &st)
				checkIdentity("EliminateRowSeq", i, r, h, n)
			}

			// One level: a greedy independent set of the reduced rows (no
			// member references, or is referenced by, another).
			level := make(map[int]*URow) // by new id
			newOf := make(map[int]int)   // original → new id
			for i := h; i < n; i++ {
				free := !rows[i].seen
				for _, c := range rows[i].rc {
					free = free && (c-n == i || !rows[c-n].factored)
				}
				if !free {
					continue
				}
				u, err := s.FactorPivotRow(n+i, rows[i].rc, rows[i].rv, rows[i].tau, par.M, 0, &st)
				if err != nil {
					t.Fatal(err)
				}
				u.Col = h + len(level)
				level[u.Col], newOf[i] = &u, u.Col
				rows[i].factored = true
				for _, c := range rows[i].rc {
					rows[c-n].seen = true
				}
			}
			nl1 := h + len(level)
			for i := h; i < n; i++ {
				r := &rows[i]
				if r.factored {
					continue
				}
				tc := append([]int(nil), r.rc...)
				tv := append([]float64(nil), r.rv...)
				hit := false
				for k, c := range tc {
					if id, ok := newOf[c-n]; ok {
						tc[k], hit = id, true
					}
				}
				if !hit {
					continue // checked above, with a wider range
				}
				sparse.SortRow(tc, tv)
				r.lc, r.lv, r.rc, r.rv = s.EliminateRow(n+i, tc, tv, r.lc, r.lv,
					func(k int) *URow { return level[k] }, h, nl1, r.tau, par.M, par.K, &st)
				checkIdentity("EliminateRow", i, r, nl1, n)
			}
			if len(level) == 0 || st.Dropped == 0 && par.Tau > 0 {
				t.Fatalf("%s %+v: the fixture exercised nothing (%d pivots, %d dropped)", name, par, len(level), st.Dropped)
			}
		}
	}
}

// sameRow compares two sparse rows bit for bit (nil and empty alike).
func sameRow(c1 []int, v1 []float64, c2 []int, v2 []float64) bool {
	if len(c1) != len(c2) || len(v1) != len(v2) || len(c1) != len(v1) {
		return false
	}
	for k := range c1 {
		if c1[k] != c2[k] || math.Float64bits(v1[k]) != math.Float64bits(v2[k]) {
			return false
		}
	}
	return true
}
