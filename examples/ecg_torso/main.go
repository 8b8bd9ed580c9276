// ECG thorax scenario: the paper's TORSO workload — computing the
// electrocardiographic potential field of a human thorax by solving
// ∇·(σ∇u) = f with jump conductivities (low-conductivity lungs, a
// high-conductivity blood pool, background tissue, and an anisotropic
// muscle shell). This example contrasts parallel ILUT and ILUT* on the
// same simulated machine: factorization time, the number of independent
// sets q, triangular-solve cost relative to a matvec, and end-to-end
// GMRES time — the comparisons of Tables 1–3.
// Run with: go run ./examples/ecg_torso
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
	const side = 20 // 8000 unknowns; raise for a bigger run
	const P = 16
	a := matgen.Torso(side, side, side, 1)
	n := a.N
	fmt.Printf("torso model: n=%d nnz=%d (σ: lungs 0.005, blood 10, tissue 0.2, anisotropic muscle shell)\n", n, a.NNZ())

	plan, err := core.Prepare(a, P, 1)
	if err != nil {
		log.Fatal(err)
	}
	lay := plan.Lay
	fmt.Printf("%d processors: %d interface rows (%.0f%% interior)\n\n",
		P, plan.NInterface, 100*plan.InteriorFraction())

	// Dipole-like source: +1 and −1 at two interior nodes (a heart
	// dipole), zero elsewhere.
	b := make([]float64, n)
	b[n/2] = 1
	b[n/2+side] = -1

	for _, cfg := range []struct {
		name   string
		params ilu.Params
	}{
		{"ILUT(10,1e-4)", ilu.Params{M: 10, Tau: 1e-4}},
		{"ILUT*(10,1e-4,2)", ilu.Params{M: 10, Tau: 1e-4, K: 2}},
		{"ILUT(10,1e-6)", ilu.Params{M: 10, Tau: 1e-6}},
		{"ILUT*(10,1e-6,2)", ilu.Params{M: 10, Tau: 1e-6, K: 2}},
	} {
		pcs := make([]*core.ProcPrecond, P)
		m := modelled.New(P, machine.T3D())
		fr := m.Run(func(p pcomm.Comm) {
			pcs[p.ID()] = core.Factor(p, plan, core.Options{Params: cfg.params})
		})

		// Time one preconditioner application vs one matvec.
		bParts := lay.Scatter(b)
		m2 := modelled.New(P, machine.T3D())
		sr := m2.Run(func(p pcomm.Comm) {
			x := make([]float64, lay.NLocal(p.ID()))
			for it := 0; it < 10; it++ {
				pcs[p.ID()].Solve(p, x, bParts[p.ID()])
			}
		})
		m3 := modelled.New(P, machine.T3D())
		mr := m3.Run(func(p pcomm.Comm) {
			dm := dist.NewMatrix(p, lay, a)
			y := make([]float64, lay.NLocal(p.ID()))
			for it := 0; it < 10; it++ {
				dm.MulVec(p, y, bParts[p.ID()])
			}
		})

		// Full GMRES solve.
		results := make([]krylov.Result, P)
		xParts := make([][]float64, P)
		m4 := modelled.New(P, machine.T3D())
		gr := m4.Run(func(p pcomm.Comm) {
			dm := dist.NewMatrix(p, lay, a)
			x := make([]float64, lay.NLocal(p.ID()))
			r, err := krylov.DistGMRES(p, dm, pcs[p.ID()], x, bParts[p.ID()],
				krylov.Options{Restart: 50, Tol: 1e-8, MaxMatVec: 2000})
			if err != nil {
				panic(err)
			}
			results[p.ID()] = r
			xParts[p.ID()] = x
		})
		x := lay.Gather(xParts)
		r := make([]float64, n)
		a.MulVec(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		fmt.Printf("%-18s factor %.4fs (q=%d)  trisolve/matvec=%.2f  GMRES %.4fs NMV=%d  residual=%.1e\n",
			cfg.name, fr.Elapsed, pcs[0].NumLevels(),
			(sr.Elapsed/10)/(mr.Elapsed/10), gr.Elapsed, results[0].NMatVec,
			sparse.Norm2(r)/sparse.Norm2(b))
	}
	fmt.Println("\nILUT* keeps fewer entries in the reduced interface matrices, so it")
	fmt.Println("needs fewer independent sets (q), fewer synchronizations, and both the")
	fmt.Println("factorization and each preconditioner application get cheaper — at")
	fmt.Println("equal or nearly equal GMRES iteration counts.")
}
