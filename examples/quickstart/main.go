// Quickstart: factor a small Poisson system with serial ILUT, solve it
// with preconditioned GMRES, then do the same with the parallel
// factorization on a simulated 8-processor machine and check the two
// agree. Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/sparse"
)

func main() {
	// A 64×64 five-point Laplacian: 4096 unknowns.
	a := matgen.Grid2D(64, 64)
	n := a.N
	b := sparse.Ones(n)
	fmt.Printf("system: n=%d nnz=%d\n", n, a.NNZ())

	// --- serial: ILUT(10, 1e-4) + GMRES(30) -----------------------------
	f, _, err := ilu.ILUT(a, ilu.Params{M: 10, Tau: 1e-4})
	if err != nil {
		log.Fatal(err)
	}
	x := make([]float64, n)
	res, err := krylov.GMRES(a, f, x, b, krylov.Options{Restart: 30, Tol: 1e-8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial   ILUT(10,1e-4): fill=%.2fx  GMRES converged=%v in %d matvecs\n",
		f.FillFactor(a), res.Converged, res.NMatVec)

	// --- parallel: PILUT* on 8 simulated processors ----------------------
	const P = 8
	plan, err := core.Prepare(a, P, 1)
	if err != nil {
		log.Fatal(err)
	}
	lay := plan.Lay
	fmt.Printf("parallel: %d processors, %.0f%% interior rows, %d interface rows\n",
		P, 100*plan.InteriorFraction(), plan.NInterface)

	pcs := make([]*core.ProcPrecond, P)
	bParts := lay.Scatter(b)
	xParts := make([][]float64, P)
	results := make([]krylov.Result, P)

	m := modelled.New(P, machine.T3D())
	runStats := m.Run(func(p pcomm.Comm) {
		// Every processor runs this SPMD body, communicating through the
		// simulated message-passing machine.
		pcs[p.ID()] = core.Factor(p, plan, core.Options{
			Params: ilu.Params{M: 10, Tau: 1e-4, K: 2}, // ILUT*(10,1e-4,2)
		})
		dm := dist.NewMatrix(p, lay, a)
		xl := make([]float64, lay.NLocal(p.ID()))
		r, err := krylov.DistGMRES(p, dm, pcs[p.ID()], xl, bParts[p.ID()],
			krylov.Options{Restart: 30, Tol: 1e-8})
		if err != nil {
			panic(err)
		}
		xParts[p.ID()] = xl
		results[p.ID()] = r
	})
	fmt.Printf("parallel ILUT*(10,1e-4,2): q=%d levels, GMRES converged=%v in %d matvecs\n",
		pcs[0].NumLevels(), results[0].Converged, results[0].NMatVec)
	fmt.Printf("modelled time on the simulated T3D: %.4f s (factor+solve)\n", runStats.Elapsed)

	// --- the two solutions agree -----------------------------------------
	xp := lay.Gather(xParts)
	var maxDiff float64
	for i := range x {
		if d := abs(x[i] - xp[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max |x_serial − x_parallel| = %.2e\n", maxDiff)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
