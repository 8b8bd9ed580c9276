package ilu

import (
	"fmt"
	"sort"

	"repro/internal/mis"
	"repro/internal/sparse"
)

// MultiElimResult is the output of the serial multi-elimination driver.
type MultiElimResult struct {
	Factors *Factors
	// Perm maps original index → elimination order.
	Perm []int
	// LevelSizes lists the independent-set sizes, in elimination order.
	LevelSizes []int
	Stats      Stats
}

// MultiElimILUT computes an ILUT factorization by multi-elimination — the
// serial analogue (Saad's ILUM, reference [11] of the paper) of the
// parallel interface phase: at every level a maximal independent set of
// the *current* reduced matrix is factored at once, the corresponding
// unknowns are eliminated from the remaining rows (Algorithm 2 with the
// 3rd dropping rule; p.K > 0 applies the ILUT* cap), and the process
// recurses on the reduced matrix. It exercises exactly the level
// machinery of the parallel code with no machine underneath, which makes
// it both a reference implementation and an ordering of independent
// interest.
func MultiElimILUT(a *sparse.CSR, p Params, rounds int, seed int64) (*MultiElimResult, error) {
	if a.N != a.M {
		return nil, errNonSquare(a)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := a.N
	res := &MultiElimResult{Perm: make([]int, n)}
	st := &res.Stats

	// Reduced rows in combined space: unfactored column j ↦ n + j.
	redCols := make([][]int, n)
	redVals := make([][]float64, n)
	tau := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		rc := make([]int, len(cols))
		for k, j := range cols {
			rc[k] = n + j
		}
		redCols[i] = rc
		redVals[i] = append([]float64(nil), vals...)
		tau[i] = p.Tau * a.RowNorm2(i)
	}

	lCols := make([][]int, n)
	lVals := make([][]float64, n)
	uRows := make([]*URow, n) // by original index; cols in combined space
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	s := NewScratch(2 * n)
	newOf := make([]int, n)
	nl := 0

	for level := 0; len(remaining) > 0; level++ {
		// Independent set of the current reduced structure.
		adj := make([][]int, len(remaining))
		for k, i := range remaining {
			var nbrs []int
			for _, c := range redCols[i] {
				if o := c - n; o != i {
					nbrs = append(nbrs, indexOf(remaining, o))
				}
			}
			adj[k] = nbrs
		}
		sel := mis.Serial(adj, nil, rounds, seed+int64(level)*7919)

		var pivots []int
		for k, i := range remaining {
			if sel[k] {
				pivots = append(pivots, i)
			}
		}
		sort.Ints(pivots)
		levelNew := make(map[int]int, len(pivots))
		for r, i := range pivots {
			levelNew[i] = nl + r
			newOf[i] = nl + r
			res.Perm[i] = nl + r
		}
		nl1 := nl + len(pivots)
		res.LevelSizes = append(res.LevelSizes, len(pivots))

		// Factor the pivots (U rows only).
		inLevel := make(map[int]bool, len(pivots))
		for _, i := range pivots {
			inLevel[i] = true
		}
		pivotByNew := make(map[int]*URow, len(pivots))
		for _, i := range pivots {
			u, err := s.FactorPivotRow(n+i, redCols[i], redVals[i], tau[i], p.maxFill(n), 0, st)
			if err != nil {
				return nil, err
			}
			u.Col = levelNew[i]
			u.Orig = i
			ui := u
			uRows[i] = &ui
			pivotByNew[u.Col] = &ui
			redCols[i], redVals[i] = nil, nil
		}

		// Eliminate the level from the remaining rows (Algorithm 2).
		var next []int
		for k, i := range remaining {
			if sel[k] {
				continue
			}
			tC := append([]int(nil), redCols[i]...)
			for idx, c := range tC {
				if nid, ok := levelNew[c-n]; ok {
					tC[idx] = nid
				}
			}
			tV := redVals[i]
			sparse.SortRow(tC, tV)
			lC, lV, nrC, nrV := s.EliminateRow(n+i, tC, tV,
				lCols[i], lVals[i],
				func(k int) *URow { return pivotByNew[k] },
				nl, nl1, tau[i], p.maxFillCap(), p.K, st)
			lCols[i], lVals[i] = lC, lV
			redCols[i], redVals[i] = nrC, nrV
			next = append(next, i)
		}
		remaining = next
		nl = nl1
	}

	// Assemble: rows land at their elimination positions; U columns still
	// in combined space become elimination indices.
	fLC := make([][]int, n)
	fLV := make([][]float64, n)
	fUC := make([][]int, n)
	fUV := make([][]float64, n)
	for i := 0; i < n; i++ {
		nid := newOf[i]
		fLC[nid], fLV[nid] = lCols[i], lVals[i]
		u := uRows[i]
		uc := make([]int, 0, len(u.Cols)+1)
		uv := make([]float64, 0, len(u.Vals)+1)
		uc = append(uc, nid)
		uv = append(uv, u.Diag)
		for k, c := range u.Cols {
			if c >= n {
				uc = append(uc, newOf[c-n])
			} else {
				uc = append(uc, c)
			}
			uv = append(uv, u.Vals[k])
		}
		sparse.SortRow(uc[1:], uv[1:])
		// The diagonal is the smallest index in an upper-triangular row,
		// so the whole row is sorted.
		fUC[nid], fUV[nid] = uc, uv
	}
	res.Factors = &Factors{
		L: sparse.FromRows(n, n, fLC, fLV),
		U: sparse.FromRows(n, n, fUC, fUV),
	}
	return res, nil
}

// maxFillCap returns M for the elimination kernel (0 = unlimited keeps
// the kernel's "no cap" semantics).
func (p Params) maxFillCap() int { return p.M }

func errNonSquare(a *sparse.CSR) error {
	return fmt.Errorf("ilu: multi-elimination requires a square matrix, got %d×%d", a.N, a.M)
}

// indexOf maps a global id to its position in the remaining list. The
// remaining list is sorted ascending (it starts that way and filtering
// preserves order), so binary search applies.
func indexOf(sorted []int, v int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
