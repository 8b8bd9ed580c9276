// Scaling scenario: sweep the simulated machine from 4 to 64 processors
// and watch where parallel ILUT stops scaling and ILUT* keeps going — the
// story of Figures 4 and 5. Also prints the interface fraction, the
// mechanism behind the divergence.
// Run with: go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
)

func main() {
	a := matgen.Grid2D(128, 128) // 16384 unknowns
	fmt.Printf("problem: 2-D Laplacian, n=%d nnz=%d\n", a.N, a.NNZ())
	fmt.Printf("factorizations: ILUT(10,1e-6) vs ILUT*(10,1e-6,2), T3D cost model\n\n")
	fmt.Printf("%-5s %-10s %-22s %-22s\n", "p", "interface", "ILUT   time    q  spdup", "ILUT*  time    q  spdup")

	procs := []int{4, 8, 16, 32, 64}
	var basePlain, baseStar float64
	for _, P := range procs {
		plan, err := core.Prepare(a, P, 1)
		if err != nil {
			log.Fatal(err)
		}

		runOne := func(params ilu.Params) (float64, int) {
			pcs := make([]*core.ProcPrecond, P)
			m := modelled.New(P, machine.T3D())
			res := m.Run(func(p pcomm.Comm) {
				pcs[p.ID()] = core.Factor(p, plan, core.Options{Params: params})
			})
			return res.Elapsed, pcs[0].NumLevels()
		}
		tPlain, qPlain := runOne(ilu.Params{M: 10, Tau: 1e-6})
		tStar, qStar := runOne(ilu.Params{M: 10, Tau: 1e-6, K: 2})
		if P == procs[0] {
			basePlain, baseStar = tPlain, tStar
		}
		fmt.Printf("%-5d %-10d %.4fs %4d  %5.2f     %.4fs %4d  %5.2f\n",
			P, plan.NInterface,
			tPlain, qPlain, basePlain/tPlain,
			tStar, qStar, baseStar/tStar)
	}
	fmt.Println("\nAs p grows the interface fraction grows; plain ILUT's reduced")
	fmt.Println("matrices stay dense, so its independent sets multiply and the level")
	fmt.Println("synchronizations eat the speedup. ILUT* caps the reduced rows and")
	fmt.Println("keeps scaling — the effect is strongest exactly where the paper says:")
	fmt.Println("small thresholds, many processors, slow networks.")
}
