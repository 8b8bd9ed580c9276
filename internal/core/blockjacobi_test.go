package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

// blockILUT is the block-Jacobi reference: ilu.ILUT of processor q's
// diagonal block of plan.A over local indices, with an explicit zero
// diagonal where a row lacks one — serial ILUT on each block alone.
func blockILUT(t *testing.T, plan *Plan, q int, params ilu.Params) *ilu.Factors {
	t.Helper()
	lay := plan.Lay
	rows := lay.Rows[q]
	b := sparse.NewBuilder(len(rows), len(rows))
	for li, g := range rows {
		cols, vals := plan.A.Row(g)
		diagSeen := false
		for k, j := range cols {
			lj := lay.LocalIndex(q, j)
			if lj < 0 {
				continue
			}
			diagSeen = diagSeen || lj == li
			b.Add(li, lj, vals[k])
		}
		if !diagSeen {
			b.Add(li, li, 0)
		}
	}
	f, _, err := ilu.ILUT(b.Build(), params)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sameBits reports whether two value lists are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRow reports whether a wire row (columns as elimination ids) is the
// reference row (columns as local indices, mapped through newOf).
func sameRow(cols []int, vals []float64, refCols []int, refVals []float64, newOf []int) bool {
	if len(cols) != len(refCols) || !sameBits(vals, refVals) {
		return false
	}
	for k, lj := range refCols {
		if cols[k] != newOf[lj] {
			return false
		}
	}
	return true
}

// TestBlockJacobiMatchesBlockILUT: Factor on the BlockJacobi plan yields,
// row for row and bit for bit, the serial ILUT factors of every
// processor's diagonal block, and one application is the block's own
// triangular solve, bit for bit and with no message and no collective —
// on the zoo at p ∈ {1, 2, 4, 8} under four parameter sets.
func TestBlockJacobiMatchesBlockILUT(t *testing.T) {
	paramSets := []ilu.Params{
		{M: 4, Tau: 1e-2},
		{M: 10, Tau: 1e-4, K: 2},
		{M: 20, Tau: 1e-6},
		{M: 8, Tau: 1e-4},
	}
	for _, z := range oracleZoo() {
		for _, P := range oracleProcs {
			orig := mustPrepare(t, z.a, P, 17)
			plan, err := BlockJacobi(orig)
			if err != nil {
				t.Fatal(err)
			}
			if plan.NInterface != 0 {
				t.Fatalf("%s/p%d: block-Jacobi plan has %d interface rows", z.name, P, plan.NInterface)
			}
			lay := plan.Lay
			b := make([]float64, z.a.N)
			for i := range b {
				b[i] = float64(i%7) - 2.5
			}
			bParts := lay.Scatter(b)
			for _, params := range paramSets {
				t.Run(fmt.Sprintf("%s/p%d/m%d-tau%g-k%d", z.name, P, params.M, params.Tau, params.K), func(t *testing.T) {
					pcs := make([]*ProcPrecond, P)
					pcommtest.New(t, P, machine.T3D()).Run(func(p pcomm.Comm) {
						pcs[p.ID()] = Factor(p, plan, Options{Params: params})
					})
					xs := make([][]float64, P)
					res := pcommtest.New(t, P, machine.T3D()).Run(func(p pcomm.Comm) {
						xs[p.ID()] = make([]float64, lay.NLocal(p.ID()))
						pcs[p.ID()].Solve(p, xs[p.ID()], bParts[p.ID()])
					})
					for q := 0; q < P; q++ {
						if s := res.PerProc[q]; s.MsgsSent != 0 || s.Collectives != 0 {
							t.Fatalf("proc %d communicated in the solve: %+v", q, s)
						}
						ref := blockILUT(t, orig, q, params)
						w := pcs[q].Wire()
						for li := range lay.Rows[q] {
							lc, lv := ref.L.Row(li)
							uc, uv := ref.U.Row(li) // diagonal first
							if !sameRow(w.LCols[li], w.LVals[li], lc, lv, w.NewOf) {
								t.Fatalf("proc %d local row %d: L = %v %v, reference %v %v", q, li, w.LCols[li], w.LVals[li], lc, lv)
							}
							if math.Float64bits(w.UDiag[li]) != math.Float64bits(uv[0]) ||
								!sameRow(w.UCols[li], w.UVals[li], uc[1:], uv[1:], w.NewOf) {
								t.Fatalf("proc %d local row %d: U = %v %v %v, reference %v %v", q, li, w.UDiag[li], w.UCols[li], w.UVals[li], uc, uv)
							}
						}
						want := make([]float64, lay.NLocal(q))
						ref.Solve(want, bParts[q])
						if !sameBits(xs[q], want) {
							t.Fatalf("proc %d: application differs from the block's triangular solve", q)
						}
					}
				})
			}
		}
	}
}

func TestBlockJacobiNoCommunication(t *testing.T) {
	a := matgen.Torso(6, 6, 6, 2)
	P := 4
	plan, err := BlockJacobi(mustPrepare(t, a, P, 9))
	if err != nil {
		t.Fatal(err)
	}
	lay := plan.Lay
	bParts := lay.Scatter(sparse.Ones(a.N))
	pcs := make([]*ProcPrecond, P)
	fres := pcommtest.New(t, P, machine.T3D()).Run(func(p pcomm.Comm) {
		pcs[p.ID()] = Factor(p, plan, Options{Params: ilu.Params{M: 8, Tau: 1e-4}})
	})
	res := pcommtest.New(t, P, machine.T3D()).Run(func(p pcomm.Comm) {
		x := make([]float64, lay.NLocal(p.ID()))
		pcs[p.ID()].Solve(p, x, bParts[p.ID()])
	})
	for q := 0; q < P; q++ {
		// The factorization's set-up and closing collectives remain; no
		// row crosses processors.
		if fres.PerProc[q].MsgsSent != 0 {
			t.Fatalf("proc %d sent messages while factoring: %+v", q, fres.PerProc[q])
		}
		t.Logf("proc %d: factorization ran %d collectives", q, fres.PerProc[q].Collectives)
		if res.PerProc[q].MsgsSent != 0 || res.PerProc[q].Collectives != 0 {
			t.Fatalf("proc %d communicated: %+v", q, res.PerProc[q])
		}
	}
}

func TestBlockJacobiWeakerThanPILUT(t *testing.T) {
	// The point of the comparison: as P grows, block Jacobi discards more
	// coupling and needs more iterations than PILUT at the same (m, tau).
	a := matgen.Torso(7, 7, 7, 4)
	P := 8
	plan := mustPrepare(t, a, P, 9)
	bjPlan, err := BlockJacobi(plan)
	if err != nil {
		t.Fatal(err)
	}
	lay := plan.Lay
	params := ilu.Params{M: 10, Tau: 1e-4, K: 2}
	b := sparse.Ones(a.N)
	bParts := lay.Scatter(b)
	// One Richardson step each; PILUT's residual must be smaller.
	xBJ := make([][]float64, P)
	xPI := make([][]float64, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		bj := Factor(p, bjPlan, Options{Params: params})
		pc := Factor(p, plan, Options{Params: params})
		x1 := make([]float64, lay.NLocal(p.ID()))
		bj.Solve(p, x1, bParts[p.ID()])
		x2 := make([]float64, lay.NLocal(p.ID()))
		pc.Solve(p, x2, bParts[p.ID()])
		xBJ[p.ID()] = x1
		xPI[p.ID()] = x2
	})
	resNorm := func(parts [][]float64) float64 {
		x := lay.Gather(parts)
		r := make([]float64, a.N)
		a.MulVec(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		return sparse.Norm2(r)
	}
	rBJ, rPI := resNorm(xBJ), resNorm(xPI)
	t.Logf("one-step residuals: block-jacobi=%.3e pilut=%.3e", rBJ, rPI)
	if rPI >= rBJ {
		t.Errorf("PILUT residual %v not better than block Jacobi %v", rPI, rBJ)
	}
}

func TestBlockJacobiMissingDiagonalRepaired(t *testing.T) {
	// A row whose pattern lacks its diagonal gets an explicit zero there,
	// and the factorization repairs that pivot with its floor.
	a := sparse.FromDense([][]float64{
		{0, 1, 0, 0},
		{1, 2, 0, 0},
		{0, 0, 3, 1},
		{0, 0, 1, 3},
	})
	part := []int{0, 0, 1, 1}
	lay, _ := dist.NewLayout(4, 2, part)
	plan, err := NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	bjPlan, err := BlockJacobi(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := bjPlan.A.NNZ(); got != a.NNZ()+1 {
		t.Fatalf("block-Jacobi matrix has %d entries, want %d: the explicit zero diagonal of row 0", got, a.NNZ()+1)
	}
	m := pcommtest.New(t, 2, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		pc := Factor(p, bjPlan, Options{Params: ilu.Params{M: 2, Tau: 1e-8}})
		if pc.Stats.ILU.FixedPivot == 0 && p.ID() == 0 {
			panic("row 0's zero pivot was not repaired")
		}
	})
}
