package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

func TestBlockJacobiSingleProcEqualsILUT(t *testing.T) {
	// With one processor the block is the whole matrix.
	a := matgen.Grid2D(8, 8)
	lay, _ := dist.NewLayout(a.N, 1, make([]int, a.N))
	plan, err := NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ilu.ILUT(a, ilu.Params{M: 5, Tau: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	m := pcommtest.New(t, 1, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		bj, err := FactorBlockJacobi(p, plan, ilu.Params{M: 5, Tau: 1e-3})
		if err != nil {
			panic(err)
		}
		if bj.NNZ() != want.NNZ() {
			panic("block-jacobi on 1 proc differs from serial ILUT")
		}
	})
}

func TestBlockJacobiNoCommunication(t *testing.T) {
	a := matgen.Torso(6, 6, 6, 2)
	P := 4
	plan := mustPrepare(t, a, P, 9)
	lay := plan.Lay
	b := sparse.Ones(a.N)
	bParts := lay.Scatter(b)
	m := pcommtest.New(t, P, machine.T3D())
	res := m.Run(func(p pcomm.Comm) {
		bj, err := FactorBlockJacobi(p, plan, ilu.Params{M: 8, Tau: 1e-4})
		if err != nil {
			panic(err)
		}
		x := make([]float64, lay.NLocal(p.ID()))
		bj.Solve(p, x, bParts[p.ID()])
	})
	for q := 0; q < P; q++ {
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
	lay := plan.Lay
	params := ilu.Params{M: 10, Tau: 1e-4, K: 2}
	b := sparse.Ones(a.N)
	bParts := lay.Scatter(b)
	// One Richardson step each; PILUT's residual must be smaller.
	xBJ := make([][]float64, P)
	xPI := make([][]float64, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		bj, err := FactorBlockJacobi(p, plan, params)
		if err != nil {
			panic(err)
		}
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
	// A row whose diagonal lies outside its block (possible with zero
	// original diagonal) must still factor via the pivot floor.
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
	m := pcommtest.New(t, 2, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		if _, err := FactorBlockJacobi(p, plan, ilu.Params{M: 2, Tau: 1e-8}); err != nil {
			panic(err)
		}
	})
}
