package core

import (
	"fmt"

	"repro/internal/ilu"
	"repro/internal/sparse"
)

// GatherFactors reassembles the global permuted factors from every
// processor's piece: the permutation perm (original index → elimination
// order) and Factors such that L·U approximates P·A·Pᵀ up to the entries
// removed by the dropping rules. Diagnostic/test use — a production solve
// never forms the global factors.
func GatherFactors(pcs []*ProcPrecond) (*ilu.Factors, []int, error) {
	if len(pcs) == 0 {
		return nil, nil, fmt.Errorf("core: no processor pieces")
	}
	n := pcs[0].plan.A.N
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	lCols := make([][]int, n)
	lVals := make([][]float64, n)
	uCols := make([][]int, n)
	uVals := make([][]float64, n)
	for _, pc := range pcs {
		w := pc.Wire()
		for li, g := range pc.owned {
			nid := w.NewOf[li]
			if nid < 0 || nid >= n {
				return nil, nil, fmt.Errorf("core: row %d has invalid new id %d", g, nid)
			}
			if perm[g] != -1 {
				return nil, nil, fmt.Errorf("core: row %d assigned twice", g)
			}
			perm[g] = nid
			lCols[nid] = w.LCols[li]
			lVals[nid] = w.LVals[li]
			uc := append([]int{nid}, w.UCols[li]...)
			uv := append([]float64{w.UDiag[li]}, w.UVals[li]...)
			uCols[nid] = uc
			uVals[nid] = uv
		}
	}
	for i, p := range perm {
		if p == -1 {
			return nil, nil, fmt.Errorf("core: row %d never assigned", i)
		}
	}
	f := &ilu.Factors{
		L: sparse.FromRows(n, n, lCols, lVals),
		U: sparse.FromRows(n, n, uCols, uVals),
	}
	return f, perm, nil
}
