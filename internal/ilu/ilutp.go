package ilu

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sparse"
)

// ILUTPResult carries the factors of a column-pivoted factorization and
// the column permutation that was chosen.
type ILUTPResult struct {
	Factors *Factors
	// Pos maps an original column to its pivot position: the factors
	// approximate A·Q where Q moves column j to position Pos[j].
	Pos   []int
	Stats Stats
}

// Solve solves A·x = b using the pivoted factors, undoing the column
// permutation.
func (r *ILUTPResult) Solve(x, b []float64) {
	n := len(r.Pos)
	y := make([]float64, n)
	r.Factors.Solve(y, b)
	for j := 0; j < n; j++ {
		x[j] = y[r.Pos[j]]
	}
}

// ILUTP computes ILUT with column pivoting (Saad's ILUTP): at step i,
// if the largest eligible entry of the working row exceeds
// |w_diag| / permTol, its column is swapped into the pivot position.
// permTol ≤ 1 disables pivoting (plain ILUT up to bookkeeping); a common
// robust choice is permTol in [10, 1000] — larger values pivot more
// eagerly. Use it when the matrix has zeros or small entries on the
// diagonal, where plain ILUT must fall back to pivot floors.
func ILUTP(a *sparse.CSR, p Params, permTol float64) (*ILUTPResult, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("ilu: ILUTP requires a square matrix, got %d×%d", a.N, a.M)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := a.N
	m := p.maxFill(n)
	res := &ILUTPResult{Pos: make([]int, n)}
	st := &res.Stats

	pos := res.Pos // original column → position
	colAt := make([]int, n)
	for j := 0; j < n; j++ {
		pos[j] = j
		colAt[j] = j
	}

	w := sparse.NewWorkRow(n) // indexed by ORIGINAL column
	lCols := make([][]int, n) // position indices (< i, frozen)
	lVals := make([][]float64, n)
	uCols := make([][]int, n) // original columns; diag col first
	uVals := make([][]float64, n)
	uDiagCol := make([]int, n)
	var q colQueue // of pivot positions
	q.resize(n)

	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		if len(cols) == 0 {
			return nil, fmt.Errorf("ilu: row %d of A is empty", i)
		}
		tau := p.Tau * a.RowNorm2(i)
		w.Scatter(cols, vals)
		for _, j := range cols {
			if pos[j] < i {
				q.push(pos[j])
			}
		}
		for k := q.pop(); k >= 0; k = q.pop() {
			jc := colAt[k] // original column sitting at pivot position k
			piv := uVals[k][0]
			wk := w.Get(jc) / piv
			st.Flops++
			if math.Abs(wk) < tau {
				w.Drop(jc)
				st.Dropped++
				continue
			}
			w.Set(jc, wk)
			ukc := uCols[k]
			ukv := uVals[k]
			for idx := 1; idx < len(ukc); idx++ {
				j := ukc[idx]
				if pos[j] < i { // a position beyond k: row k's U part never moves behind its pivot
					q.push(pos[j])
				}
				w.Add(j, -wk*ukv[idx])
				st.Flops += 2
			}
		}

		// Split the working row by position and apply the 2nd dropping
		// rule per part (threshold, then keep the m largest).
		type ent struct {
			col int
			val float64
		}
		var lpart, upart []ent
		for _, j := range w.Indices() {
			v := w.Get(j)
			if pos[j] < i {
				lpart = append(lpart, ent{j, v})
			} else {
				upart = append(upart, ent{j, v})
			}
		}
		filter := func(es []ent, cap int, protect int) []ent {
			out := es[:0]
			for _, e := range es {
				if e.col == protect || math.Abs(e.val) >= tau {
					out = append(out, e)
				} else {
					st.Dropped++
				}
			}
			if cap > 0 && len(out) > cap {
				sort.Slice(out, func(a, b int) bool {
					av, bv := math.Abs(out[a].val), math.Abs(out[b].val)
					if out[a].col == protect {
						return true
					}
					if out[b].col == protect {
						return false
					}
					if av != bv {
						return av > bv
					}
					return out[a].col < out[b].col
				})
				st.Dropped += len(out) - cap
				out = out[:cap]
			}
			return out
		}
		lpart = filter(lpart, m, -1)

		// Pivot choice among the U part: the diagonal candidate is the
		// column currently at position i; swap in the largest entry when
		// it dominates by more than the pivoting tolerance.
		diagCol := colAt[i]
		diagVal := w.Get(diagCol)
		best, bestVal := diagCol, math.Abs(diagVal)
		if permTol > 1 {
			for _, e := range upart {
				if av := math.Abs(e.val); av > bestVal*1.0000000001 && av > math.Abs(diagVal)*permTolInv(permTol) {
					best, bestVal = e.col, av
				}
			}
		}
		if best != diagCol && math.Abs(w.Get(best)) > math.Abs(diagVal) {
			// Swap positions of diagCol and best.
			pi, pb := pos[diagCol], pos[best]
			pos[diagCol], pos[best] = pb, pi
			colAt[pi], colAt[pb] = best, diagCol
			diagCol = best
			diagVal = w.Get(best)
		}
		upart = filter(upart, m+1, diagCol)

		// Assemble the row. L columns are frozen positions; U keeps
		// original columns with the pivot column first.
		sort.Slice(lpart, func(a, b int) bool { return pos[lpart[a].col] < pos[lpart[b].col] })
		lc := make([]int, len(lpart))
		lv := make([]float64, len(lpart))
		for k, e := range lpart {
			lc[k] = pos[e.col]
			lv[k] = e.val
		}
		lCols[i], lVals[i] = lc, lv

		d := diagVal
		if d == 0 || math.Abs(d) < 1e-300 {
			if d >= 0 {
				d = pivotFloor(tau)
			} else {
				d = -pivotFloor(tau)
			}
			st.FixedPivot++
		}
		uc := []int{diagCol}
		uv := []float64{d}
		for _, e := range upart {
			if e.col != diagCol {
				uc = append(uc, e.col)
				uv = append(uv, e.val)
			}
		}
		uCols[i], uVals[i] = uc, uv
		uDiagCol[i] = diagCol
		w.Reset()
	}

	// Translate U columns to final positions and build the factors.
	fUC := make([][]int, n)
	fUV := make([][]float64, n)
	for i := 0; i < n; i++ {
		uc := make([]int, len(uCols[i]))
		uv := append([]float64(nil), uVals[i]...)
		for k, j := range uCols[i] {
			uc[k] = pos[j]
		}
		sparse.SortRow(uc, uv)
		fUC[i] = uc
		fUV[i] = uv
	}
	res.Factors = &Factors{
		L: sparse.FromRows(n, n, lCols, lVals),
		U: sparse.FromRows(n, n, fUC, fUV),
	}
	return res, nil
}

func permTolInv(t float64) float64 {
	if t <= 1 {
		return math.Inf(1)
	}
	return 1 / t
}
