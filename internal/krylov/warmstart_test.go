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

// TestGMRESWarmStartUnchangedSystem pins the warm-start contract: solving
// an unchanged system starting from its own converged solution must
// terminate at the first residual check — one matrix–vector product, no
// Arnoldi iterations.
func TestGMRESWarmStartUnchangedSystem(t *testing.T) {
	a := matgen.Grid2D(10, 10)
	b := sparse.Ones(a.N)
	x := make([]float64, a.N)
	cold, err := GMRES(a, nil, x, b, Options{Restart: 20, Tol: 1e-9})
	if err != nil || !cold.Converged {
		t.Fatalf("cold solve failed: %v %+v", err, cold)
	}

	warmX := make([]float64, a.N) // zeros: X0 must override the iterate
	warm, err := GMRES(a, nil, warmX, b, Options{Restart: 20, Tol: 1e-9, X0: x})
	if err != nil || !warm.Converged {
		t.Fatalf("warm solve failed: %v %+v", err, warm)
	}
	if warm.NMatVec > 1 {
		t.Fatalf("warm start on unchanged system took %d matvecs, want ≤ 1", warm.NMatVec)
	}
	if warm.Restarts != 0 {
		t.Fatalf("warm start restarted %d times, want 0", warm.Restarts)
	}
	for i := range warmX {
		if warmX[i] != x[i] {
			t.Fatalf("warm solution drifted from the guess at %d: %v vs %v", i, warmX[i], x[i])
		}
	}
}

func TestGMRESWarmStartLengthError(t *testing.T) {
	a := matgen.Grid2D(4, 4)
	b := sparse.Ones(a.N)
	x := make([]float64, a.N)
	for _, n := range []int{a.N - 1, a.N + 3} {
		if _, err := GMRES(a, nil, x, b, Options{X0: make([]float64, n)}); err == nil {
			t.Fatalf("GMRES accepted an X0 of length %d for %d unknowns", n, a.N)
		}
	}
}

// TestDistGMRESWarmStartDeterministic runs the distributed warm start on
// an unchanged system (≤1 matvec, like the serial case) and then a
// genuinely useful warm start — a slightly perturbed matrix — twice,
// checking the residual histories are bitwise identical across repeats
// and strictly shorter than the cold history. The solves are
// PILUT-preconditioned: with a clustered spectrum the iteration count
// tracks the digits still to gain, which is exactly what a warm start
// buys. (Unpreconditioned GMRES on a Laplacian can stagnate on the
// smooth error a warm start leaves behind — that regime is not the
// contract.)
func TestDistGMRESWarmStartDeterministic(t *testing.T) {
	base := matgen.Grid2D(12, 12)
	next := matgen.Evolve(base, 1, 1e-4, 5)[0]
	b := sparse.Ones(base.N)
	const P = 4
	lay := planFor(t, base, P).Lay
	bParts := lay.Scatter(b)

	solve := func(a *sparse.CSR, x0Parts [][]float64) ([]Result, [][]float64) {
		plan, err := core.NewPlan(a, lay)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]Result, P)
		xParts := make([][]float64, P)
		m := pcommtest.New(t, P, machine.T3D())
		m.Run(func(p pcomm.Comm) {
			dm := dist.NewMatrix(p, lay, a)
			pc := core.Factor(p, plan, core.Options{Params: ilu.Params{M: 8, Tau: 1e-4, K: 2}})
			x := make([]float64, lay.NLocal(p.ID()))
			opt := Options{Restart: 20, Tol: 1e-9}
			if x0Parts != nil {
				opt.X0 = x0Parts[p.ID()]
			}
			r, err := DistGMRES(p, dm, pc, x, bParts[p.ID()], opt)
			if err != nil {
				panic(err)
			}
			results[p.ID()] = r
			xParts[p.ID()] = x
		})
		return results, xParts
	}

	coldRes, coldX := solve(base, nil)
	if !coldRes[0].Converged {
		t.Fatalf("cold solve did not converge: %+v", coldRes[0])
	}

	// Unchanged system: ≤ 1 matvec from the converged solution.
	sameRes, _ := solve(base, coldX)
	if sameRes[0].NMatVec > 1 {
		t.Fatalf("warm start on unchanged system took %d matvecs, want ≤ 1", sameRes[0].NMatVec)
	}

	// Perturbed system: warm start must converge in fewer matvecs than a
	// cold start on the same system, with a bitwise deterministic history.
	coldNext, _ := solve(next, nil)
	warm1, _ := solve(next, coldX)
	warm2, _ := solve(next, coldX)
	if !warm1[0].Converged {
		t.Fatalf("warm solve on perturbed system did not converge: %+v", warm1[0])
	}
	if warm1[0].NMatVec >= coldNext[0].NMatVec {
		t.Fatalf("warm start (%d matvecs) not faster than cold (%d matvecs) on perturbed system",
			warm1[0].NMatVec, coldNext[0].NMatVec)
	}
	for q := 0; q < P; q++ {
		h1, h2 := warm1[q].History, warm2[q].History
		if len(h1) != len(h2) {
			t.Fatalf("proc %d history lengths differ across repeats: %d vs %d", q, len(h1), len(h2))
		}
		for i := range h1 {
			if math.Float64bits(h1[i]) != math.Float64bits(h2[i]) {
				t.Fatalf("proc %d history[%d] differs across repeats: %x vs %x",
					q, i, math.Float64bits(h1[i]), math.Float64bits(h2[i]))
			}
		}
	}
}

func TestDistGMRESBatchRejectsSharedX0(t *testing.T) {
	const P = 2
	a := matgen.Grid2D(6, 6)
	lay := planFor(t, a, P).Lay
	b := sparse.Ones(a.N)
	bParts := lay.Scatter(b)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		dm := dist.NewMatrix(p, lay, a)
		nl := lay.NLocal(p.ID())
		xs := [][]float64{make([]float64, nl)}
		bs := [][]float64{bParts[p.ID()]}
		if _, err := DistGMRESBatch(p, dm, nil, xs, bs, Options{X0: make([]float64, nl)}); err == nil {
			panic("DistGMRESBatch accepted Options.X0")
		}
	})
}
