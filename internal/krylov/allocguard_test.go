//go:build !race

package krylov

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/realcomm"
	"repro/internal/sparse"
)

// Alloc-regression guard for the one distributed driver, beside dist's
// TestMulVecSteadyStateAllocs and core's TestSolveSteadyStateAllocs: a
// solve entered through DistGMRES and the same solve entered as a batch
// of one are the same code, so they must allocate the same — the Krylov
// workspace, the History appends and what the backend's collectives
// cost, nothing of the driver's own per dot product. Before DistGMRES
// became the B = 1 case,
// this set-up (Grid2D 64×64, ILUT*(10,1e-4,2), p = 4, GMRES(30), 22
// products) cost DistGMRES 812 mallocs per solve across the four ranks
// and a DistGMRESBatch of one — every solve the service runs — 9 416; the
// shared driver spends about 725 through either (the basis vectors are
// separate allocations on purpose, see vectors). Measured via the global
// malloc counter around a quiesced window, as the other two guards do.
// Excluded under the race detector, whose instrumentation allocates.
func TestDistGMRESBatchOfOneAllocs(t *testing.T) {
	const (
		P      = 4
		warm   = 2
		meas   = 10
		budget = 760 // per solve over all ranks, either entry point; below the 812 DistGMRES cost before
		slack  = 20  // between the entry points: the wrapper's two one-element slices per rank, barrier generations
	)
	a := matgen.Grid2D(64, 64)
	lay := layoutFor(t, a, P)
	plan, err := core.NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	bParts := lay.Scatter(sparse.Ones(a.N))
	opt := Options{Restart: 30, Tol: 1e-8}
	var perSolve [2]uint64
	realcomm.New(P).Run(func(p pcomm.Comm) {
		me := p.ID()
		dm := dist.NewMatrix(p, lay, a)
		pc := core.Factor(p, plan, core.Options{Params: ilu.Params{M: 10, Tau: 1e-4, K: 2}})
		x := make([]float64, lay.NLocal(me))
		entries := [2]func(){
			func() {
				if _, err := DistGMRES(p, dm, pc, x, bParts[me], opt); err != nil {
					panic(err)
				}
			},
			func() {
				if _, err := DistGMRESBatch(p, dm, pc, [][]float64{x}, [][]float64{bParts[me]}, opt); err != nil {
					panic(err)
				}
			},
		}
		for e, solve := range entries {
			run := func(n int) {
				for i := 0; i < n; i++ {
					for k := range x {
						x[k] = 0
					}
					solve()
				}
			}
			run(warm)
			p.Barrier()
			var m1, m2 runtime.MemStats
			if me == 0 {
				runtime.GC()
				runtime.ReadMemStats(&m1)
			}
			p.Barrier()
			run(meas)
			p.Barrier()
			if me == 0 {
				runtime.ReadMemStats(&m2)
				perSolve[e] = (m2.Mallocs - m1.Mallocs) / meas
			}
			p.Barrier()
		}
	})
	single, batch := perSolve[0], perSolve[1]
	t.Logf("mallocs per solve on %d procs: DistGMRES %d, DistGMRESBatch of one %d (budget %d, slack %d)", P, single, batch, budget, slack)
	if single > budget || batch > budget {
		t.Errorf("one solve allocated %d (DistGMRES) / %d (batch of one) objects, budget %d", single, batch, budget)
	}
	if diff := int64(batch) - int64(single); diff > slack || diff < -slack {
		t.Errorf("the two entry points allocate differently: DistGMRES %d, batch of one %d (slack %d)", single, batch, slack)
	}
}
