package krylov

import (
	"math"
	"testing"

	"repro/internal/ilu"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func residual(a *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, a.N)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return sparse.Norm2(r) / sparse.Norm2(b)
}

func TestGMRESUnpreconditioned(t *testing.T) {
	a := matgen.Grid2D(8, 8)
	b := sparse.Ones(a.N)
	x := make([]float64, a.N)
	res, err := GMRES(a, nil, x, b, Options{Restart: 30, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if r := residual(a, x, b); r > 1e-8 {
		t.Errorf("true residual %v", r)
	}
}

func TestGMRESWithILUTConvergesFaster(t *testing.T) {
	a := matgen.Torso(7, 7, 7, 1)
	b := sparse.Ones(a.N)

	x0 := make([]float64, a.N)
	plain, err := GMRES(a, nil, x0, b, Options{Restart: 20, Tol: 1e-8, MaxMatVec: 5000})
	if err != nil {
		t.Fatal(err)
	}

	f, _, err := ilu.ILUT(a, ilu.Params{M: 10, Tau: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, a.N)
	pre, err := GMRES(a, f, x1, b, Options{Restart: 20, Tol: 1e-8, MaxMatVec: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Converged {
		t.Fatalf("preconditioned GMRES did not converge: %+v", pre)
	}
	if plain.Converged && pre.NMatVec >= plain.NMatVec {
		t.Errorf("ILUT preconditioning did not reduce matvecs: %d vs %d", pre.NMatVec, plain.NMatVec)
	}
	if r := residual(a, x1, b); r > 1e-6 {
		t.Errorf("true residual %v", r)
	}
}

func TestGMRESNonsymmetric(t *testing.T) {
	a := matgen.ConvDiff2D(12, 12, 30, -20)
	b := sparse.Ones(a.N)
	f, _, err := ilu.ILUT(a, ilu.Params{M: 8, Tau: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	res, err := GMRES(a, f, x, b, Options{Restart: 30, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if r := residual(a, x, b); r > 1e-6 {
		t.Errorf("true residual %v", r)
	}
}

func TestGMRESRestartValues(t *testing.T) {
	// Smaller restart may need more matvecs but must still converge with
	// a decent preconditioner (the paper contrasts GMRES(10) and (50)).
	a := matgen.Grid2D(14, 14)
	b := sparse.Ones(a.N)
	f, _, err := ilu.ILUT(a, ilu.Params{M: 5, Tau: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	var nmv [2]int
	for i, restart := range []int{10, 50} {
		x := make([]float64, a.N)
		res, err := GMRES(a, f, x, b, Options{Restart: restart, Tol: 1e-8, MaxMatVec: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("restart=%d did not converge", restart)
		}
		// Every product ends in a residual, at a restart check or an
		// Arnoldi step, and History records each.
		if len(res.History) != res.NMatVec || res.History[len(res.History)-1] != res.Residual {
			t.Errorf("restart=%d: History has %d entries ending in %v for %d matvecs and final residual %v",
				restart, len(res.History), res.History[len(res.History)-1], res.NMatVec, res.Residual)
		}
		nmv[i] = res.NMatVec
	}
	if nmv[1] > nmv[0] {
		t.Logf("note: GMRES(50) used more matvecs (%d) than GMRES(10) (%d)", nmv[1], nmv[0])
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := matgen.Grid2D(5, 5)
	x := sparse.Ones(a.N)
	res, err := GMRES(a, nil, x, make([]float64, a.N), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("zero RHS should converge immediately")
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatal("solution of zero RHS should be zero")
		}
	}
}

func TestGMRESMatVecBudget(t *testing.T) {
	a := matgen.Torso(8, 8, 8, 2)
	b := sparse.Ones(a.N)
	x := make([]float64, a.N)
	res, err := GMRES(a, nil, x, b, Options{Restart: 10, Tol: 1e-14, MaxMatVec: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.NMatVec > 25 {
		t.Errorf("budget exceeded: %d", res.NMatVec)
	}
	if res.Converged {
		t.Log("converged within tiny budget (unexpected but not wrong)")
	}
}

func TestGMRESDimensionErrors(t *testing.T) {
	a := matgen.Grid2D(3, 3)
	if _, err := GMRES(a, nil, make([]float64, 2), make([]float64, 9), Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestGivens(t *testing.T) {
	for _, tc := range [][2]float64{{3, 4}, {0, 5}, {5, 0}, {-2, 7}, {1e-30, 1}} {
		c, s := givens(tc[0], tc[1])
		if math.Abs(c*c+s*s-1) > 1e-12 {
			t.Errorf("givens(%v,%v): not a rotation", tc[0], tc[1])
		}
		if z := -s*tc[0] + c*tc[1]; math.Abs(z) > 1e-12*(math.Abs(tc[0])+math.Abs(tc[1])) {
			t.Errorf("givens(%v,%v): did not annihilate b: %v", tc[0], tc[1], z)
		}
	}
}
