package ilu

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// URow is the U-factor row of a factored pivot, in global column indices.
// The diagonal is held separately; Cols/Vals list the strictly-upper
// entries in increasing column order. Pivot rows are what processors
// exchange during the interface phase — the paper's "rows of U that need
// to be communicated".
type URow struct {
	Col  int // the pivot's index in the (combined or final) column space
	Orig int // the pivot's original row id, for cross-processor matching
	Diag float64
	Cols []int
	Vals []float64
}

// emptyRowCols/emptyRowVals back the Cols/Vals of a pivot row with no
// off-diagonal survivors: non-nil (matching the historical exact-fit
// make) and shared — zero-length, so no write can ever land in them.
var (
	emptyRowCols = make([]int, 0)
	emptyRowVals = make([]float64, 0)
)

// FactorPivotRow turns the current reduced row of an independent-set
// pivot into its U row (the paper's phase-2 step "factoring the nodes of
// I_l only requires creating the rows of U"): entries below the relative
// threshold tau are dropped and at most m off-diagonal entries survive
// (tau = 0, m = 0 keeps the whole row — the static pattern of ILU(0)).
// cols/vals must contain the diagonal position i. perturb, when non-zero,
// is the fault-injection pivot perturbation of Params.PivotPerturb,
// applied before the tiny-pivot repair check.
//
// The surviving-entry buffer is the scratch's reusable selection buffer,
// the m largest are picked by the one selection routine every dropping
// rule uses (sparse.SelectLargest), and the U row's storage is carved
// from the output arena.
//
//pilut:hotpath
func (s *Scratch) FactorPivotRow(i int, cols []int, vals []float64, tau float64, m int, perturb float64, st *Stats) (URow, error) {
	r := URow{Col: i}
	found := false
	if cap(s.ents) < len(cols) {
		s.ents = make([]sparse.Ent, len(cols)+len(cols)/2) //pilutlint:ok hotalloc selection buffer grows to peak row nnz once, then is reused across rows
	}
	keep := s.ents[:len(cols)]
	nk := 0
	for k, j := range cols {
		if j == i {
			r.Diag = vals[k]
			found = true
			continue
		}
		if math.Abs(vals[k]) < tau {
			st.Dropped++
			st.DroppedRule2++
			continue
		}
		keep[nk] = sparse.Ent{Col: j, Val: vals[k]}
		nk++
	}
	keep = keep[:nk]
	if !found {
		return r, fmt.Errorf("ilu: pivot row %d has no diagonal entry", i)
	}
	r.Diag = repairPivot(r.Diag, tau, perturb, st)
	if m > 0 && len(keep) > m {
		sparse.SelectLargest(keep, m)
		st.Dropped += len(keep) - m
		st.DroppedRule2 += len(keep) - m
		keep = keep[:m]
	}
	sparse.SortEntsByCol(keep)
	if len(keep) == 0 {
		r.Cols, r.Vals = emptyRowCols, emptyRowVals
		return r, nil
	}
	r.Cols, r.Vals = s.carveEnts(keep)
	return r, nil
}

// repairPivot applies the fault-injection perturbation (0 = none) to a
// computed pivot d and replaces a zero or denormal-small result by the
// pivot floor of its sign.
func repairPivot(d, tau, perturb float64, st *Stats) float64 {
	if perturb != 0 {
		d *= perturb
	}
	if d == 0 || math.Abs(d) < 1e-300 {
		st.FixedPivot++
		if d >= 0 {
			return pivotFloor(tau)
		}
		return -pivotFloor(tau)
	}
	return d
}

// EliminateRow applies Algorithm 2 of the paper to one row that is *not*
// in the current independent set: it eliminates the unknowns of the pivot
// range [nl, nl1) from the row, merges the multipliers with the row's
// accumulated L part, applies the 3rd dropping rule and splits the result
// into the new L part (columns < nl1) and the next-level reduced row
// (columns ≥ nl1).
//
//   - the scratch's working row spans the global index space (clean on
//     entry and exit).
//   - aCols/aVals is the current reduced row of i (columns in [nl, n)).
//   - lCols/lVals is the L row accumulated over earlier levels (columns
//     < nl).
//   - pivot(k) returns the U row of pivot k for k in [nl, nl1); it is only
//     called for columns actually present in the row.
//   - tau is the row's relative drop tolerance (t × ‖original a_i‖₂).
//   - m bounds the L part; kcap·m bounds the reduced part when kcap > 0
//     (the ILUT* rule — kcap ≤ 0 reproduces plain ILUT).
//
// Because the pivots are independent, the eliminations cannot create fill
// inside [nl, nl1), so a single increasing sweep over the row's original
// pivot-range entries suffices — the property the paper exploits to
// pre-post all communication.
//
// Every intermediate lives in the scratch and the returned row halves
// are carved from the output arena.
//
//pilut:hotpath
func (s *Scratch) EliminateRow(
	i int,
	aCols []int, aVals []float64,
	lCols []int, lVals []float64,
	pivot func(k int) *URow,
	nl, nl1 int,
	tau float64, m, kcap int,
	st *Stats,
) (newLCols []int, newLVals []float64, redCols []int, redVals []float64) {
	w := s.w
	w.Scatter(aCols, aVals)

	// Eliminate pivot-range unknowns in increasing column order. aCols is
	// sorted, and no new entries appear in [nl, nl1) during the sweep.
	for _, k := range aCols {
		if k < nl || k >= nl1 {
			continue
		}
		if !w.Has(k) {
			continue
		}
		p := pivot(k)
		if p == nil {
			panic(fmt.Sprintf("ilu: EliminateRow: missing pivot row %d", k))
		}
		wk := w.Get(k) / p.Diag
		st.Flops++
		if math.Abs(wk) < tau {
			// 1st dropping rule.
			w.Drop(k)
			st.Dropped++
			st.DroppedRule1++
			continue
		}
		w.Set(k, wk)
		for idx, j := range p.Cols {
			if j >= nl && j < nl1 {
				panic(fmt.Sprintf("ilu: pivot %d has entry %d inside the independent range [%d,%d)", k, j, nl, nl1))
			}
			w.Add(j, -wk*p.Vals[idx])
			st.Flops += 2
		}
	}

	// Merge the accumulated L row (line 13 of Algorithm 2).
	w.Scatter(lCols, lVals)
	return s.finishRow(i, nl1, tau, m, kcap, st)
}

// EliminateRowSeq is the phase-1 variant of EliminateRow used when the
// pivot block [nl, nl1) was factored *sequentially* (a processor's interior
// rows) rather than as an independent set: eliminations may then create
// fill back inside the pivot range, so the sweep is driven by the scratch's
// pivot queue, which picks up fill positions exactly like the main ILUT
// loop. Dropping rules and the L/reduced split are identical to
// EliminateRow.
//
//pilut:hotpath
func (s *Scratch) EliminateRowSeq(
	i int,
	aCols []int, aVals []float64,
	pivot func(k int) *URow,
	nl, nl1 int,
	tau float64, m, kcap int,
	st *Stats,
) (newLCols []int, newLVals []float64, redCols []int, redVals []float64) {
	s.sweepSeq(aCols, aVals, pivot, nl, nl1, tau, st)
	return s.finishRow(i, nl1, tau, m, kcap, st)
}

// sweepSeq scatters a row into the working row and eliminates the
// sequentially factored pivots [nl, nl1) from it in ascending order, fill
// included, under the 1st dropping rule. A pivot's U row only reaches
// columns beyond the pivot, so every column queued during the sweep lies
// ahead of the queue's cursor, and the queue is empty again when the sweep
// ends.
//
//pilut:hotpath
func (s *Scratch) sweepSeq(aCols []int, aVals []float64, pivot func(k int) *URow, nl, nl1 int, tau float64, st *Stats) {
	w, q := s.w, &s.q
	for idx, k := range aCols {
		w.Add(k, aVals[idx])
		if k >= nl && k < nl1 {
			q.push(k)
		}
	}
	for k := q.pop(); k >= 0; k = q.pop() {
		p := pivot(k)
		if p == nil {
			panic(fmt.Sprintf("ilu: EliminateRowSeq: missing pivot row %d", k))
		}
		wk := w.Get(k) / p.Diag
		st.Flops++
		if math.Abs(wk) < tau {
			w.Drop(k)
			st.Dropped++
			st.DroppedRule1++
			continue
		}
		w.Set(k, wk)
		for idx, j := range p.Cols {
			if j > k && j < nl1 {
				q.push(j)
			}
			w.Add(j, -wk*p.Vals[idx])
			st.Flops += 2
		}
	}
}

// FactorInteriorRow factors one row of a sequentially factored block —
// a processor's interior rows — whose earlier rows are the pivots
// [nl, i): the sequential sweep, then one row tail that applies the
// 2nd dropping rule to the L part and, to the U part, the 3rd rule's
// threshold and the 2nd rule's cap of m with the diagonal protected, then
// the pivot perturbation and repair of FactorPivotRow on that diagonal.
// It returns what EliminateRowSeq with kcap = 0 followed by
// FactorPivotRow on the reduced part returns, values and Stats to the
// bit, without ever sorting, storing or rescanning the uncapped U part:
// the tail has already removed what is below tau, so the pivot row's own
// threshold pass would find nothing, and the m largest of a set do not
// depend on the order they are selected from.
//
//pilut:hotpath
func (s *Scratch) FactorInteriorRow(
	i int,
	aCols []int, aVals []float64,
	pivot func(k int) *URow,
	nl int,
	tau float64, m int, perturb float64,
	st *Stats,
) (lCols []int, lVals []float64, u URow) {
	s.sweepSeq(aCols, aVals, pivot, nl, i, tau, st)
	lo, hi, dLo, dTol, dCut, fixed := s.w.Tail(i, tau, m, m, i, pivotFloor(tau))
	st.Dropped += dLo + dTol + dCut
	st.DroppedRule2 += dLo + dCut
	st.DroppedRule3 += dTol
	if fixed {
		st.FixedPivot++
	}
	if len(lo) > 0 {
		lCols, lVals = s.carveEnts(lo)
	}
	// The diagonal is the U part's smallest column, so it leads.
	u = URow{Col: i, Diag: repairPivot(hi[0].Val, tau, perturb, st), Cols: emptyRowCols, Vals: emptyRowVals}
	if len(hi) > 1 {
		u.Cols, u.Vals = s.carveEnts(hi[1:])
	}
	return lCols, lVals, u
}

// finishRow is the shared tail of EliminateRow and EliminateRowSeq: the
// 3rd dropping rule — threshold-and-cap the factored part; threshold
// (and, for ILUT*, cap at kcap·m) the reduced part, always preserving
// the reduced diagonal, recreated at the pivot floor if elimination
// cancelled it exactly (the row must stay factorable) — and the
// L/reduced split, all of it one sparse.WorkRow.Tail; then the carve of
// the four result slices.
//
//pilut:hotpath
func (s *Scratch) finishRow(i, nl1 int, tau float64, m, kcap int, st *Stats) (newLCols []int, newLVals []float64, redCols []int, redVals []float64) {
	mRed := 0
	if kcap > 0 && m > 0 {
		mRed = kcap * m
	}
	lo, hi, d2, dTol, dCut, fixed := s.w.Tail(nl1, tau, m, mRed, i, pivotFloor(tau))
	d3 := dTol + dCut
	st.Dropped += d2 + d3
	st.DroppedRule2 += d2
	st.DroppedRule3 += d3
	if fixed {
		st.FixedPivot++
	}
	if len(lo) > 0 {
		newLCols, newLVals = s.carveEnts(lo)
	}
	if len(hi) > 0 {
		redCols, redVals = s.carveEnts(hi)
	}
	return
}

// EliminateRowStatic is the zero-fill (ILU(0)) counterpart of
// EliminateRow: it eliminates the pivot block [nl, nl1) from a row while
// confining every update to positions the row already has — no fill is
// created and nothing is dropped, which is precisely why the schedule of
// a static-pattern factorization can be precomputed (§3 of the paper).
// Works for both sequential pivot blocks and independent sets, since
// without fill the two traversals coincide. Returns the row's new L part
// (columns < nl1) and its remaining static row (columns ≥ nl1).
//
//pilut:hotpath
func (s *Scratch) EliminateRowStatic(
	i int,
	aCols []int, aVals []float64,
	lCols []int, lVals []float64,
	pivot func(k int) *URow,
	nl, nl1 int,
	st *Stats,
) (newLCols []int, newLVals []float64, redCols []int, redVals []float64) {
	w := s.w
	n := w.Len()
	w.Scatter(aCols, aVals)
	for _, k := range aCols {
		if k < nl || k >= nl1 || !w.Has(k) {
			continue
		}
		p := pivot(k)
		if p == nil {
			panic(fmt.Sprintf("ilu: EliminateRowStatic: missing pivot row %d", k))
		}
		wk := w.Get(k) / p.Diag
		st.Flops++
		w.Set(k, wk)
		for idx, j := range p.Cols {
			if w.Has(j) { // static pattern: update existing positions only
				w.Add(j, -wk*p.Vals[idx])
				st.Flops += 2
			}
		}
	}
	w.Scatter(lCols, lVals)
	s.lc, s.lv = w.Gather(0, nl1, s.lc[:0], s.lv[:0])
	s.rc, s.rv = w.Gather(nl1, n, s.rc[:0], s.rv[:0])
	w.Reset()
	return s.takeInts(s.lc), s.takeFloats(s.lv), s.takeInts(s.rc), s.takeFloats(s.rv)
}
