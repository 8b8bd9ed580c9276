package ilu

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Params configures the threshold factorizations.
type Params struct {
	// M is the maximum number of entries kept per row in each of L and U
	// (the diagonal of U does not count). M ≤ 0 means unlimited.
	M int
	// Tau is the drop threshold t. Entries smaller in magnitude than
	// Tau × ‖a_i‖₂ (relative to the original row) are dropped.
	Tau float64
	// K, when positive, enables the ILUT* rule: rows of the successively
	// reduced matrices keep at most K·M entries. K ≤ 0 reproduces plain
	// ILUT (reduced rows bounded only by the threshold). K only affects
	// the two-phase/reduced-matrix driver, not the plain serial ILUT.
	K int
	// PivotPerturb, when nonzero, multiplies every computed pivot before
	// the tiny-pivot floor check. It exists for the fault-injection layer
	// (internal/fault, Spec.PivotScale): a denormal factor such as 1e-320
	// deterministically turns every pivot into a repair, driving the
	// breakdown-detection and recovery-ladder paths. Zero — the default,
	// and the only production value — is bitwise inert.
	PivotPerturb float64
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Tau < 0 {
		return fmt.Errorf("ilu: negative drop tolerance %v", p.Tau)
	}
	return nil
}

// maxFill returns the per-row cap as a concrete bound.
func (p Params) maxFill(n int) int {
	if p.M <= 0 {
		return n
	}
	return p.M
}

// Stats reports what a factorization did; the parallel driver aggregates
// these per virtual processor. Dropped is the total over every dropping
// rule; the DroppedRuleN counters split it among the paper's three
// rules.
type Stats struct {
	Flops      float64 // multiply-add and divide operations
	Dropped    int     // entries removed by any dropping rule
	FixedPivot int     // zero/tiny pivots replaced

	// DroppedRule1 counts multipliers dropped by the relative threshold
	// during elimination (the paper's 1st dropping rule).
	DroppedRule1 int
	// DroppedRule2 counts entries dropped when a factored row is stored:
	// the relative threshold plus the keep-m-largest cap on the L and U
	// parts (the 2nd rule).
	DroppedRule2 int
	// DroppedRule3 counts entries dropped from reduced-matrix rows: the
	// relative threshold plus, for ILUT*, the k·m cap (the 3rd rule).
	DroppedRule3 int
}

// pivotFloor returns the replacement magnitude for an untenably small
// pivot: the relative threshold when positive, otherwise a fixed tiny
// value. The paper's test matrices never trigger this, but downstream
// users' will.
func pivotFloor(tau float64) float64 {
	if tau > 0 {
		return tau
	}
	return 1e-12
}

// ILUT computes the ILUT(m, t) incomplete factorization of a square
// matrix following Algorithm 1 of the paper: a dual dropping strategy with
// a relative threshold applied during elimination and a per-row fill cap
// applied when the row is stored.
func ILUT(a *sparse.CSR, p Params) (*Factors, Stats, error) {
	if a.N != a.M {
		return nil, Stats{}, fmt.Errorf("ilu: ILUT requires a square matrix, got %d×%d", a.N, a.M)
	}
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	n := a.N
	m := p.maxFill(n)

	var st Stats
	w := sparse.NewWorkRow(n)
	lCols := make([][]int, n)
	lVals := make([][]float64, n)
	uCols := make([][]int, n)
	uVals := make([][]float64, n)
	var q colQueue
	q.resize(n)

	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		if len(cols) == 0 {
			return nil, st, fmt.Errorf("ilu: row %d of A is empty", i)
		}
		tau := p.Tau * a.RowNorm2(i)

		w.Scatter(cols, vals)
		for _, j := range cols {
			if j < i {
				q.push(j)
			}
		}

		// Elimination sweep: process k < i in increasing order, including
		// fill positions created along the way (U's row k only reaches
		// columns beyond k, so they all lie ahead of the queue's cursor).
		for k := q.pop(); k >= 0; k = q.pop() {
			piv := uVals[k][0] // diagonal of U stored first in row k
			wk := w.Get(k) / piv
			st.Flops++
			if math.Abs(wk) < tau {
				// 1st dropping rule.
				w.Drop(k)
				st.Dropped++
				st.DroppedRule1++
				continue
			}
			w.Set(k, wk)
			// w ← w − wk·u_k over the strictly-upper part of U's row k.
			ukc := uCols[k]
			ukv := uVals[k]
			for idx := 1; idx < len(ukc); idx++ {
				j := ukc[idx]
				if j < i {
					q.push(j)
				}
				w.Add(j, -wk*ukv[idx])
				st.Flops += 2
			}
		}

		// 2nd dropping rule: relative threshold then keep the m largest in
		// each of the L and U parts (diagonal always kept).
		d2 := w.DropBelow(0, n, tau, i)
		d2 += w.KeepLargest(0, i, m, -1)
		d2 += w.KeepLargest(i, n, m, i)
		st.Dropped += d2
		st.DroppedRule2 += d2

		lCols[i], lVals[i] = w.Gather(0, i, nil, nil)
		// Store the diagonal first for O(1) pivot access, repaired as
		// PILUT repairs it (so the two agree at P = 1 bit for bit); the
		// remaining upper entries follow in increasing column order.
		uc := []int{i}
		uv := []float64{repairPivot(w.Get(i), tau, p.PivotPerturb, &st)}
		w.Drop(i)
		uCols[i], uVals[i] = w.Gather(i, n, uc, uv)

		w.Reset()
	}
	f := &Factors{
		L: sparse.FromRows(n, n, lCols, lVals),
		U: fromURows(n, uCols, uVals),
	}
	return f, st, nil
}

// fromURows builds the U factor from rows stored diagonal-first.
func fromURows(n int, cols [][]int, vals [][]float64) *sparse.CSR {
	// The diagonal-first convention means rows are sorted except that the
	// leading diagonal element is already the smallest column in an upper
	// triangular row, so rows are in fact fully sorted.
	return sparse.FromRows(n, n, cols, vals)
}

// CompleteLU computes the exact LU factorization by running ILUT with no
// dropping; small systems only (tests and examples).
func CompleteLU(a *sparse.CSR) (*Factors, error) {
	f, _, err := ILUT(a, Params{M: 0, Tau: 0})
	return f, err
}
