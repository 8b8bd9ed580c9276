package ilu

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// refEliminateRowSeq is EliminateRowSeq as it was before the bitmap queue,
// verbatim but for the heap's name: the sweep is driven by refHeap, pushes
// a fill column only when the row does not hold it yet, and tests every
// popped column for having been dropped.
func refEliminateRowSeq(
	s *Scratch,
	i int,
	aCols []int, aVals []float64,
	pivot func(k int) *URow,
	nl, nl1 int,
	tau float64, m, kcap int,
	st *Stats,
) (newLCols []int, newLVals []float64, redCols []int, redVals []float64) {
	w := s.w
	w.Scatter(aCols, aVals)

	var h refHeap
	for _, k := range aCols {
		if k >= nl && k < nl1 {
			h = append(h, k)
		}
	}
	h.init()
	for len(h) > 0 {
		k := h.pop()
		if !w.Has(k) {
			continue
		}
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
			if j > k && j < nl1 && !w.Has(j) {
				h.push(j)
			}
			w.Add(j, -wk*p.Vals[idx])
			st.Flops += 2
		}
	}
	return s.finishRow(i, nl1, tau, m, kcap, st)
}

// kernelCase is one configuration the kernel equivalence tests run: a
// matrix whose first half is factored as a sequential block — the way a
// processor factors its interiors, unfactored columns at n+j — under one
// parameter set and pivot perturbation.
type kernelCase struct {
	name string
	a    *sparse.CSR
	par  Params
	// perturb is the pivot perturbation of row i (nil: none).
	perturb func(i int) float64
	// minFixed is how many pivot repairs the case must provoke, so a mode
	// meant to reach the repair paths cannot silently stop reaching them.
	minFixed int
}

// withCancelledDiagonals puts three rows in front of a: row 0 a plain
// pivot; row 1 one whose diagonal row 0 cancels exactly (0.5 − 0.5·1), so
// the tail finds the position present and zero; row 2 one with no diagonal
// entry at all and no fill onto it, so the tail has to create it. Rows 1
// and 2 couple to later unknowns and a later row couples back, so the
// repaired pivots are used.
func withCancelledDiagonals(a *sparse.CSR) *sparse.CSR {
	n := a.N + 3
	b := sparse.NewBuilder(n, n)
	b.Add(0, 0, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 0.5)
	b.Add(1, 4, 0.25)
	b.Add(2, 5, 0.5)
	b.Add(2, 6, -0.5)
	b.Add(5, 1, 0.125)
	b.Add(6, 2, 0.25)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			b.Add(i+3, j+3, vals[k])
		}
	}
	return b.Build()
}

// namedMatrix is one member of kernelZoo.
type namedMatrix struct {
	name string
	a    *sparse.CSR
}

// kernelZoo is one small instance of every matgen generator.
func kernelZoo() []namedMatrix {
	return []namedMatrix{
		{"grid2d", matgen.Grid2D(12, 12)},
		{"grid3d", matgen.Grid3D(5, 5, 5)},
		{"torso", matgen.Torso(6, 6, 6, 1)},
		{"convdiff", matgen.ConvDiff2D(12, 12, 20, 5)},
		{"aniso", matgen.Anisotropic2D(12, 12, 0.01)},
		{"randspd", matgen.RandomSPDPattern(150, 5, 3)},
	}
}

func kernelCases() []kernelCase {
	var cases []kernelCase
	for _, z := range kernelZoo() {
		for _, par := range []Params{{M: 4, Tau: 1e-2, K: 2}, {M: 4, Tau: 1e-2}, {M: 10, Tau: 1e-4, K: 2}, {}} {
			name := fmt.Sprintf("%s/m%d_t%g_k%d", z.name, par.M, par.Tau, par.K)
			cases = append(cases,
				kernelCase{name: name, a: z.a, par: par},
				kernelCase{name: name + "/perturbed", a: z.a, par: par, perturb: perturbSome, minFixed: 3},
				kernelCase{name: name + "/cancelled", a: withCancelledDiagonals(z.a), par: par, minFixed: 2},
			)
		}
	}
	return cases
}

// perturbSome scales most pivots and flips their sign, and every seventh
// it multiplies by the fault layer's 1e-320, which makes it a repair. (That
// factor on every row drives the values to NaN within a few rows, where
// "the m largest" stops being a set.)
func perturbSome(i int) float64 {
	if i%7 == 3 {
		return 1e-320
	}
	return -0.75
}

func (c *kernelCase) perturbOf(i int) float64 {
	if c.perturb == nil {
		return 0
	}
	return c.perturb(i)
}

// enc returns row i of the case's matrix with the columns outside the
// sequential block [0, h) moved to n+j.
func (c *kernelCase) enc(i, h int) ([]int, []float64) {
	cols, vals := c.a.Row(i)
	ec, ev := append([]int(nil), cols...), append([]float64(nil), vals...)
	for k, j := range ec {
		if j >= h {
			ec[k] = c.a.N + j
		}
	}
	return ec, ev
}

func sameURow(x, y URow) bool {
	return x.Col == y.Col && math.Float64bits(x.Diag) == math.Float64bits(y.Diag) &&
		x.Cols != nil && y.Cols != nil && sameRow(x.Cols, x.Vals, y.Cols, y.Vals)
}

// TestEliminateRowSeqMatchesParentKernel: the queue-driven sweep against
// the heap-driven one it replaced, row by row through a sequential block
// (pivot range growing with the row, as in phase 1a) and then over the
// rows behind it (the whole block as pivot range and the ILUT* cap, as in
// phase 1b): columns, value bits and every Stats field.
func TestEliminateRowSeqMatchesParentKernel(t *testing.T) {
	for _, c := range kernelCases() {
		n, h := c.a.N, c.a.N/2
		s, ref := NewScratch(2*n), NewScratch(2*n)
		var st, rst Stats
		block := make([]URow, h)
		pivot := func(k int) *URow { return &block[k] }
		for i := 0; i < n; i++ {
			tau := c.par.Tau * c.a.RowNorm2(i)
			ec, ev := c.enc(i, h)
			id, nl1, kcap := i, i, 0
			if i >= h {
				id, nl1, kcap = n+i, h, c.par.K
			}
			lc, lv, rc, rv := s.EliminateRowSeq(id, ec, ev, pivot, 0, nl1, tau, c.par.M, kcap, &st)
			rlc, rlv, rrc, rrv := refEliminateRowSeq(ref, id, ec, ev, pivot, 0, nl1, tau, c.par.M, kcap, &rst)
			if !sameRow(lc, lv, rlc, rlv) || !sameRow(rc, rv, rrc, rrv) || st != rst {
				t.Fatalf("%s row %d:\n got %v %v | %v %v %+v\nwant %v %v | %v %v %+v", c.name, i, lc, lv, rc, rv, st, rlc, rlv, rrc, rrv, rst)
			}
			if i < h {
				u, err := s.FactorPivotRow(i, rc, rv, tau, c.par.M, c.perturbOf(i), &st)
				if err != nil {
					t.Fatal(err)
				}
				rst = st
				block[i] = u
			}
		}
		s.Poison() // the queue is empty and the row reset after the last sweep
		if st.Flops == 0 || st.FixedPivot < c.minFixed {
			t.Fatalf("%s: the case exercised too little: %+v", c.name, st)
		}
	}
}

// TestInteriorRowMatchesTwoStep: the fused interior-row kernel against
// the two calls it replaced — EliminateRowSeq with no reduced-row cap, then
// FactorPivotRow on the reduced part — each on its own scratch and its own
// pivots: L part, U row, diagonal and every Stats field, which includes the
// split of the U part's drops between the 2nd rule (the cap) and the 3rd
// (the threshold) and the pivot repairs from both the tail and the pivot
// check.
func TestInteriorRowMatchesTwoStep(t *testing.T) {
	capped := 0 // rows whose U part met the cap, over all cases
	for _, c := range kernelCases() {
		n, h := c.a.N, c.a.N/2
		s, ref := NewScratch(2*n), NewScratch(2*n)
		var st, rst Stats
		block, rblock := make([]URow, h), make([]URow, h)
		for i := 0; i < h; i++ {
			tau := c.par.Tau * c.a.RowNorm2(i)
			ec, ev := c.enc(i, h)
			lc, lv, u := s.FactorInteriorRow(i, ec, ev, func(k int) *URow { return &block[k] }, 0, tau, c.par.M, c.perturbOf(i), &st)
			rule2 := rst.DroppedRule2
			rlc, rlv, rc, rv := ref.EliminateRowSeq(i, ec, ev, func(k int) *URow { return &rblock[k] }, 0, i, tau, c.par.M, 0, &rst)
			lRule2 := rst.DroppedRule2 - rule2
			ru, err := ref.FactorPivotRow(i, rc, rv, tau, c.par.M, c.perturbOf(i), &rst)
			if err != nil {
				t.Fatal(err)
			}
			if rst.DroppedRule2-rule2 > lRule2 {
				capped++
			}
			if !sameRow(lc, lv, rlc, rlv) || !sameURow(u, ru) || st != rst {
				t.Fatalf("%s row %d:\n got %v %v | %+v %+v\nwant %v %v | %+v %+v", c.name, i, lc, lv, u, st, rlc, rlv, ru, rst)
			}
			block[i], rblock[i] = u, ru
		}
		s.Poison()
		if st.Flops == 0 || st.FixedPivot < c.minFixed || c.par.Tau > 0 && c.perturb == nil && st.DroppedRule3 == 0 {
			t.Fatalf("%s: the case exercised too little: %+v", c.name, st)
		}
	}
	if capped < 100 {
		t.Fatalf("only %d rows met the U part's cap", capped)
	}
}
