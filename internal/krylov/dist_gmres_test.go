package krylov

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

// planFor is the krylov tests' plan of a on P processors.
func planFor(t *testing.T, a *sparse.CSR, P int) *core.Plan {
	t.Helper()
	plan, err := core.Prepare(a, P, 6)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestDistGMRESMatchesSerialUnpreconditioned(t *testing.T) {
	a := matgen.Grid2D(9, 9)
	b := sparse.Ones(a.N)
	want := make([]float64, a.N)
	wantRes, err := GMRES(a, nil, want, b, Options{Restart: 15, Tol: 1e-9})
	if err != nil || !wantRes.Converged {
		t.Fatalf("serial reference failed: %v %+v", err, wantRes)
	}

	for _, P := range []int{1, 3, 5} {
		lay := planFor(t, a, P).Lay
		bParts := lay.Scatter(b)
		xParts := make([][]float64, P)
		results := make([]Result, P)
		m := pcommtest.New(t, P, machine.T3D())
		m.Run(func(p pcomm.Comm) {
			dm := dist.NewMatrix(p, lay, a)
			x := make([]float64, lay.NLocal(p.ID()))
			r, err := DistGMRES(p, dm, nil, x, bParts[p.ID()], Options{Restart: 15, Tol: 1e-9})
			if err != nil {
				panic(err)
			}
			xParts[p.ID()] = x
			results[p.ID()] = r
		})
		for q := 0; q < P; q++ {
			if !results[q].Converged {
				t.Fatalf("P=%d proc %d did not converge", P, q)
			}
			if results[q].NMatVec != results[0].NMatVec {
				t.Fatalf("P=%d: processors disagree on NMatVec", P)
			}
		}
		got := lay.Gather(xParts)
		// Same algorithm, same arithmetic order for the local parts but
		// different reduction order: compare solutions loosely.
		ref := make([]float64, a.N)
		a.MulVec(ref, got)
		for i := range ref {
			ref[i] = b[i] - ref[i]
		}
		if rel := sparse.Norm2(ref) / sparse.Norm2(b); rel > 1e-7 {
			t.Errorf("P=%d: true residual %v", P, rel)
		}
	}
}

// TestDistGMRESWithPILUT: PILUT-preconditioned DistGMRES converges on
// every processor count from one to eight, to a true residual
// ‖b − A·x‖/‖b‖ recomputed serially, in fewer matvecs than Jacobi.
func TestDistGMRESWithPILUT(t *testing.T) {
	a := matgen.Torso(6, 6, 6, 8)
	n := a.N
	b := sparse.Ones(n)
	for _, P := range []int{1, 2, 4, 8} {
		plan := planFor(t, a, P)
		lay := plan.Lay
		bParts := lay.Scatter(b)
		xParts := make([][]float64, P)
		var nmv [2]int
		converged := false
		m := pcommtest.New(t, P, machine.T3D())
		m.Run(func(p pcomm.Comm) {
			dm := dist.NewMatrix(p, lay, a)
			pc := core.Factor(p, plan, core.Options{Params: ilu.Params{M: 8, Tau: 1e-4, K: 2}})
			x := make([]float64, lay.NLocal(p.ID()))
			r, err := DistGMRES(p, dm, pc, x, bParts[p.ID()], Options{Restart: 20, Tol: 1e-8, MaxMatVec: 2000})
			if err != nil {
				panic(err)
			}
			xParts[p.ID()] = x
			if p.ID() == 0 {
				nmv[0], converged = r.NMatVec, r.Converged
			}

			// Diagonal baseline must need more matvecs.
			jac, err := NewDistJacobi(lay, a, p.ID())
			if err != nil {
				panic(err)
			}
			x2 := make([]float64, lay.NLocal(p.ID()))
			r2, err := DistGMRES(p, dm, jac, x2, bParts[p.ID()], Options{Restart: 20, Tol: 1e-8, MaxMatVec: 4000})
			if err != nil {
				panic(err)
			}
			if p.ID() == 0 {
				nmv[1] = r2.NMatVec
			}
		})
		if !converged {
			t.Errorf("P=%d: PILUT-preconditioned DistGMRES did not converge", P)
		}
		got := lay.Gather(xParts)
		r := make([]float64, n)
		a.MulVec(r, got)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if rel := sparse.Norm2(r) / sparse.Norm2(b); rel > 1e-6 {
			t.Errorf("P=%d: true residual %v", P, rel)
		}
		if nmv[0] >= nmv[1] {
			t.Errorf("P=%d: PILUT nmv %d not fewer than Jacobi nmv %d", P, nmv[0], nmv[1])
		}
		t.Logf("P=%d: PILUT NMV=%d, Jacobi NMV=%d", P, nmv[0], nmv[1])
	}
}

func TestDistJacobi(t *testing.T) {
	a := matgen.Grid2D(4, 4)
	lay := planFor(t, a, 2).Lay
	m := pcommtest.New(t, 2, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		j, err := NewDistJacobi(lay, a, p.ID())
		if err != nil {
			panic(err)
		}
		nl := lay.NLocal(p.ID())
		b := make([]float64, nl)
		for i := range b {
			b[i] = 4
		}
		x := make([]float64, nl)
		j.Solve(p, x, b)
		for i := range x {
			if math.Abs(x[i]-1) > 1e-15 {
				panic("Jacobi solve wrong")
			}
		}
	})
}

func TestDistGMRESZeroRHS(t *testing.T) {
	a := matgen.Grid2D(4, 4)
	lay := planFor(t, a, 2).Lay
	m := pcommtest.New(t, 2, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		dm := dist.NewMatrix(p, lay, a)
		nl := lay.NLocal(p.ID())
		x := make([]float64, nl)
		for i := range x {
			x[i] = 1
		}
		r, err := DistGMRES(p, dm, nil, x, make([]float64, nl), Options{})
		if err != nil || !r.Converged {
			panic("zero RHS should converge")
		}
		for i := range x {
			if x[i] != 0 {
				panic("solution should be zero")
			}
		}
	})
}
