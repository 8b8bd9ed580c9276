package ilu

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// ILU0 computes the zero-fill incomplete factorization: the L and U
// patterns are exactly the pattern of A. It is the cheap static-pattern
// baseline the paper contrasts with threshold dropping.
func ILU0(a *sparse.CSR) (*Factors, Stats, error) {
	pattern, err := symbolicILUK(a, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	return factorOnPattern(a, pattern)
}

// ILUK computes the level-of-fill factorization ILU(k): fill entries are
// admitted while their fill level does not exceed lev. ILUK(a, 0) equals
// ILU0(a).
func ILUK(a *sparse.CSR, lev int) (*Factors, Stats, error) {
	if lev < 0 {
		return nil, Stats{}, fmt.Errorf("ilu: negative fill level %d", lev)
	}
	pattern, err := symbolicILUK(a, lev)
	if err != nil {
		return nil, Stats{}, err
	}
	return factorOnPattern(a, pattern)
}

// symbolicILUK computes the union pattern of L+U for ILU(k) by symbolic
// elimination: lev(fill at j via pivot k) = lev(i,k) + lev(k,j) + 1, kept
// while ≤ maxLev. The returned matrix stores levels as values (diagonal
// included with level 0) — downstream only uses the pattern.
func symbolicILUK(a *sparse.CSR, maxLev int) (*sparse.CSR, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("ilu: symbolic ILU(k) requires a square matrix")
	}
	n := a.N
	// levRow[j] = current level of position j in the working row; −1 absent.
	levRow := make([]int, n)
	for j := range levRow {
		levRow[j] = -1
	}
	var touched []int
	var q colQueue
	q.resize(n)

	rowCols := make([][]int, n)
	rowLevs := make([][]float64, n)
	// uPat[k] lists the strictly-upper pattern of row k with levels, used
	// when row k acts as pivot.
	uPat := make([][]int, n)
	uLev := make([][]int, n)

	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		hasDiag := false
		touched = touched[:0]
		for _, j := range cols {
			levRow[j] = 0
			touched = append(touched, j)
			if j < i {
				q.push(j)
			}
			if j == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			levRow[i] = 0
			touched = append(touched, i)
		}
		for k := q.pop(); k >= 0; k = q.pop() {
			lik := levRow[k]
			if lik < 0 || lik > maxLev {
				continue
			}
			for idx, j := range uPat[k] {
				nl := lik + uLev[k][idx] + 1
				if nl > maxLev {
					continue
				}
				if levRow[j] == -1 {
					levRow[j] = nl
					touched = append(touched, j)
					if j < i {
						q.push(j)
					}
				} else if nl < levRow[j] {
					levRow[j] = nl
				}
			}
		}
		// Collect the surviving pattern (level ≤ maxLev).
		var rc []int
		var rl []float64
		var up []int
		var ul []int
		// touched may contain duplicates? No: positions are appended only
		// when transitioning from −1.
		sortInts(touched)
		for _, j := range touched {
			l := levRow[j]
			levRow[j] = -1
			if l < 0 || l > maxLev {
				continue
			}
			rc = append(rc, j)
			rl = append(rl, float64(l))
			if j > i {
				up = append(up, j)
				ul = append(ul, l)
			}
		}
		rowCols[i], rowLevs[i] = rc, rl
		uPat[i], uLev[i] = up, ul
	}
	return sparse.FromRows(n, n, rowCols, rowLevs), nil
}

func sortInts(a []int) {
	// Insertion sort: the touched lists are short and nearly sorted.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// factorOnPattern runs the numeric IKJ elimination restricted to a fixed
// pattern (which must include every diagonal position).
func factorOnPattern(a *sparse.CSR, pattern *sparse.CSR) (*Factors, Stats, error) {
	n := a.N
	var st Stats
	w := sparse.NewWorkRow(n)
	lCols := make([][]int, n)
	lVals := make([][]float64, n)
	uCols := make([][]int, n)
	uVals := make([][]float64, n)

	for i := 0; i < n; i++ {
		pcols, _ := pattern.Row(i)
		// Load a_i onto the fixed pattern (positions outside it are lost).
		for _, j := range pcols {
			w.Set(j, 0)
		}
		acols, avals := a.Row(i)
		for k, j := range acols {
			if w.Has(j) {
				w.Set(j, avals[k])
			}
		}
		// No fill on a fixed pattern: the pivots are the row's own columns
		// below the diagonal, which a CSR row lists in increasing order.
		for _, k := range pcols {
			if k >= i {
				break
			}
			piv := uVals[k][0]
			wk := w.Get(k) / piv
			st.Flops++
			w.Set(k, wk)
			ukc := uCols[k]
			ukv := uVals[k]
			for idx := 1; idx < len(ukc); idx++ {
				j := ukc[idx]
				if w.Has(j) { // static pattern: update only existing slots
					w.Add(j, -wk*ukv[idx])
					st.Flops += 2
				}
			}
		}
		lCols[i], lVals[i] = w.Gather(0, i, nil, nil)
		d := w.Get(i)
		if d == 0 || math.Abs(d) < 1e-300 {
			d = pivotFloor(0)
			st.FixedPivot++
		}
		uc := []int{i}
		uv := []float64{d}
		w.Drop(i)
		uc, uv = w.Gather(i, n, uc, uv)
		uCols[i], uVals[i] = uc, uv
		w.Reset()
	}
	f := &Factors{
		L: sparse.FromRows(n, n, lCols, lVals),
		U: sparse.FromRows(n, n, uCols, uVals),
	}
	return f, st, nil
}

// Jacobi returns the diagonal preconditioner as degenerate Factors (L
// empty, U the diagonal of A): the paper's baseline in Table 3.
func Jacobi(a *sparse.CSR) (*Factors, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("ilu: Jacobi requires a square matrix")
	}
	n := a.N
	d := a.Diagonal()
	uc := make([][]int, n)
	uv := make([][]float64, n)
	for i := 0; i < n; i++ {
		if d[i] == 0 {
			return nil, fmt.Errorf("ilu: Jacobi: zero diagonal at %d", i)
		}
		uc[i] = []int{i}
		uv[i] = []float64{d[i]}
	}
	return &Factors{
		L: sparse.NewCSR(n, n),
		U: sparse.FromRows(n, n, uc, uv),
	}, nil
}
