package ilu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
)

// Property: ILUT(m, t) respects the 2nd dropping rule's fill cap on every
// row — at most m off-diagonal entries in the L part and at most m+1
// entries (including the diagonal) in the U part — and attributes every
// dropped entry to exactly one of the paper's dropping rules.
func TestILUTFillCapProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(40)
		m := 1 + r.Intn(6)
		a := matgen.RandomSPDPattern(n, 2+r.Intn(5), seed)
		fac, st, err := ILUT(a, Params{M: m, Tau: math.Pow(10, -1-float64(r.Intn(7)))})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			lc, _ := fac.L.Row(i)
			if len(lc) > m {
				t.Logf("row %d: %d L entries exceed m=%d", i, len(lc), m)
				return false
			}
			uc, _ := fac.U.Row(i)
			if len(uc) > m+1 {
				t.Logf("row %d: %d U entries exceed m+1=%d", i, len(uc), m+1)
				return false
			}
		}
		// Plain ILUT has no reduced matrix, so rule 3 never fires and the
		// per-rule counters partition the total exactly.
		if st.DroppedRule3 != 0 || st.Dropped != st.DroppedRule1+st.DroppedRule2 {
			t.Logf("drop counters inconsistent: total=%d rule1=%d rule2=%d rule3=%d",
				st.Dropped, st.DroppedRule1, st.DroppedRule2, st.DroppedRule3)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: no kept off-diagonal entry is below the row's relative
// threshold t·‖a_i‖₂ — the dual dropping strategy never stores an entry
// the 2nd rule should have removed. The diagonal is exempt (tiny pivots
// are floored, not dropped).
func TestILUTThresholdProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(40)
		p := Params{M: 0, Tau: math.Pow(10, -1-float64(r.Intn(6)))}
		a := matgen.RandomSPDPattern(n, 2+r.Intn(4), seed)
		fac, _, err := ILUT(a, p)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			tau := p.Tau * a.RowNorm2(i)
			lc, lv := fac.L.Row(i)
			for k := range lc {
				if math.Abs(lv[k]) < tau {
					t.Logf("row %d: kept L entry %v below threshold %v", i, lv[k], tau)
					return false
				}
			}
			uc, uv := fac.U.Row(i)
			for k := range uc {
				if uc[k] == i {
					continue
				}
				if math.Abs(uv[k]) < tau {
					t.Logf("row %d: kept U entry %v below threshold %v", i, uv[k], tau)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the ILUT* 3rd dropping rule caps the reduced row produced by
// the phase-2 kernel at k·m entries plus the protected diagonal, for any
// random row and any random independent pivot set; the L part obeys the
// 2nd rule's m cap; and the per-rule drop counters partition the total.
func TestEliminateRowReducedCapProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl1 := 2 + r.Intn(6) // pivot range [0, nl1)
		n := nl1 + 10 + r.Intn(40)
		m := 1 + r.Intn(4)
		kcap := 1 + r.Intn(3)

		// Independent pivots: their U rows have no entries inside [0, nl1).
		pivots := make([]*URow, nl1)
		for k := 0; k < nl1; k++ {
			u := &URow{Col: k, Diag: 1 + r.Float64()}
			for j := nl1; j < n; j++ {
				if r.Float64() < 0.3 {
					u.Cols = append(u.Cols, j)
					u.Vals = append(u.Vals, r.NormFloat64())
				}
			}
			pivots[k] = u
		}

		// A random unfactored row with its diagonal at i ≥ nl1.
		i := nl1 + r.Intn(n-nl1)
		var cols []int
		var vals []float64
		for j := 0; j < n; j++ {
			if j == i || r.Float64() < 0.4 {
				cols = append(cols, j)
				vals = append(vals, r.NormFloat64())
			}
		}

		s := NewScratch(n)
		var st Stats
		newL, _, red, _ := s.EliminateRow(i, cols, vals, nil, nil,
			func(k int) *URow { return pivots[k] },
			0, nl1, 1e-4, m, kcap, &st)
		if len(newL) > m {
			t.Logf("L part kept %d entries, cap m=%d", len(newL), m)
			return false
		}
		if len(red) > kcap*m+1 {
			t.Logf("reduced row kept %d entries, cap k·m+1=%d", len(red), kcap*m+1)
			return false
		}
		if st.Dropped != st.DroppedRule1+st.DroppedRule2+st.DroppedRule3 {
			t.Logf("drop counters inconsistent: total=%d rule1=%d rule2=%d rule3=%d",
				st.Dropped, st.DroppedRule1, st.DroppedRule2, st.DroppedRule3)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
