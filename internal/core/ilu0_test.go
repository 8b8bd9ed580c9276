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

// withILU0 is the per-rank factor call of the parallel ILU(0).
func withILU0(p pcomm.Comm, plan *Plan) *ProcPrecond { return FactorILU0(p, plan, 0, 1) }

func TestParallelILU0PatternEqualsPermutedA(t *testing.T) {
	a := matgen.Torso(6, 6, 6, 2)
	for _, P := range []int{2, 4} {
		pcs, _, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withILU0)
		f, perm, err := GatherFactors(pcs)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CheckStructure(); err != nil {
			t.Fatal(err)
		}
		pap := a.Permute(perm)
		// Union pattern of L and U must exactly equal the pattern of PAPᵀ.
		b := sparse.NewBuilder(a.N, a.N)
		for i := 0; i < a.N; i++ {
			cols, _ := f.L.Row(i)
			for _, j := range cols {
				b.Add(i, j, 1)
			}
			ucols, _ := f.U.Row(i)
			for _, j := range ucols {
				b.Add(i, j, 1)
			}
		}
		union := b.Build()
		if union.NNZ() != pap.NNZ() {
			t.Fatalf("P=%d: ILU(0) pattern nnz %d, PAPᵀ nnz %d", P, union.NNZ(), pap.NNZ())
		}
		for i := 0; i < a.N; i++ {
			uc, _ := union.Row(i)
			ac, _ := pap.Row(i)
			for k := range uc {
				if uc[k] != ac[k] {
					t.Fatalf("P=%d: row %d pattern differs", P, i)
				}
			}
		}
	}
}

func TestParallelILU0EqualsSerialOnPermutedMatrix(t *testing.T) {
	// The defining invariant: the parallel factorization is bitwise
	// identical to serial ILU(0) applied to the permuted matrix — the
	// elimination order and the pattern restriction are the same, only
	// the execution is distributed.
	a := matgen.Torso(5, 5, 7, 6)
	for _, P := range []int{1, 2, 4, 8} {
		pcs, _, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withILU0)
		f, perm, err := GatherFactors(pcs)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ilu.ILU0(a.Permute(perm))
		if err != nil {
			t.Fatal(err)
		}
		sameFactors(t, fmt.Sprintf("P=%d", P), f, want)
	}
}

// denormalPivot is Grid2D(9, 9) plus one decoupled unknown whose
// diagonal, and so whose pivot, is the negative denormal −5e-324: the
// repair must keep its sign.
func denormalPivot() *sparse.CSR {
	g := matgen.Grid2D(9, 9)
	b := sparse.NewBuilder(g.N+1, g.N+1)
	for i := 0; i < g.N; i++ {
		cols, vals := g.Row(i)
		for k, j := range cols {
			b.Add(i, j, vals[k])
		}
	}
	b.Add(g.N, g.N, -math.SmallestNonzeroFloat64)
	return b.Build()
}

func TestParallelILU0SingleProcEqualsSerial(t *testing.T) {
	// At P = 1 the order is the natural one and the factors are serial
	// ILU(0) of A itself; at larger P they are that of PAPᵀ, bit for bit
	// — also when a pivot is a negative denormal and must be repaired.
	for _, mat := range []zooMatrix{{"grid2d", matgen.Grid2D(9, 9)}, {"denormalpivot", denormalPivot()}} {
		for _, P := range []int{1, 2, 4, 8} {
			pcs, _, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), mat.a, withILU0)
			f, perm, err := GatherFactors(pcs)
			if err != nil {
				t.Fatal(err)
			}
			pap := mat.a
			if P == 1 {
				for i, p := range perm {
					if p != i {
						t.Fatalf("P=1 permutation not identity at %d", i)
					}
				}
			} else {
				pap = mat.a.Permute(perm)
			}
			want, _, err := ilu.ILU0(pap)
			if err != nil {
				t.Fatal(err)
			}
			sameFactors(t, fmt.Sprintf("%s/P=%d", mat.name, P), f, want)
		}
	}
}

func TestParallelILU0FewerLevelsThanILUT(t *testing.T) {
	// The static pattern needs only a colouring-sized number of levels;
	// ILUT's fill forces far more.
	a := matgen.Torso(8, 8, 8, 3)
	P := 8
	ilu0, _, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withILU0)
	ilut, _, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withOptions(Options{Params: ilu.Params{M: 10, Tau: 1e-6}}))
	q0 := ilu0[0].NumLevels()
	qT := ilut[0].NumLevels()
	t.Logf("levels: ILU(0)=%d ILUT(10,1e-6)=%d", q0, qT)
	if q0*3 > qT {
		t.Errorf("ILU(0) levels (%d) should be ≪ ILUT levels (%d)", q0, qT)
	}
}

func TestParallelILU0SolveMatchesGathered(t *testing.T) {
	a := matgen.Torso(6, 6, 6, 4)
	n := a.N
	P := 4
	pcs, plan, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withILU0)
	lay := plan.Lay
	f, perm, err := GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 1.3)
	}
	want := make([]float64, n)
	f.Solve(want, sparse.PermuteVec(b, perm))
	bParts := lay.Scatter(b)
	yParts := make([][]float64, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		y := make([]float64, lay.NLocal(p.ID()))
		pcs[p.ID()].Solve(p, y, bParts[p.ID()])
		yParts[p.ID()] = y
	})
	got := lay.Gather(yParts)
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-want[perm[i]]) > 1e-9*math.Max(1, math.Abs(want[perm[i]])) {
			t.Fatalf("solve mismatch at %d", i)
		}
	}
}

func TestParallelILU0PreconditionsGMRES(t *testing.T) {
	// One preconditioned step should substantially reduce the residual —
	// less than ILUT at small tau, but far better than nothing.
	a := matgen.Grid2D(12, 12)
	n := a.N
	P := 4
	pcs, plan, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withILU0)
	lay := plan.Lay
	b := sparse.Ones(n)
	bParts := lay.Scatter(b)
	xParts := make([][]float64, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		x := make([]float64, lay.NLocal(p.ID()))
		pcs[p.ID()].Solve(p, x, bParts[p.ID()])
		xParts[p.ID()] = x
	})
	x := lay.Gather(xParts)
	r := make([]float64, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rel1 := sparse.Norm2(r) / sparse.Norm2(b)
	if rel1 >= 1 {
		t.Fatalf("ILU(0) step did not reduce the residual: %v", rel1)
	}
	// Richardson iteration with M = ILU(0) must converge steadily.
	rParts := lay.Scatter(r)
	m2 := pcommtest.New(t, P, machine.T3D())
	m2.Run(func(p pcomm.Comm) {
		xl := xParts[p.ID()]
		rl := rParts[p.ID()]
		z := make([]float64, len(xl))
		dm := dist.NewMatrix(p, lay, a)
		for it := 0; it < 10; it++ {
			pcs[p.ID()].Solve(p, z, rl)
			for i := range xl {
				xl[i] += z[i]
			}
			dm.MulVec(p, rl, xl)
			for i := range rl {
				rl[i] = bParts[p.ID()][i] - rl[i]
			}
		}
	})
	x = lay.Gather(xParts)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	// ILU(0) on a Laplacian converges slowly but steadily: ten further
	// steps must at least halve the first-step residual.
	if rel := sparse.Norm2(r) / sparse.Norm2(b); rel > rel1/2 {
		t.Errorf("Richardson with ILU(0) stalled at residual %v (first step %v)", rel, rel1)
	}
}
