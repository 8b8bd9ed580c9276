//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/pcomm"
	"repro/internal/pcomm/realcomm"
)

// Alloc-regression guard for the preconditioner application, beside
// dist's TestMulVecSteadyStateAllocs: steady-state Solve and SolveBatch on
// real goroutines must not allocate — the sweeps walk flat slot-resolved
// factors, messages circulate through pcomm.Floats (whose free list the
// exchange plan sized), and the lanes are retained. Measured via the
// global malloc counter around a quiesced window (the sweeps run on worker
// goroutines, out of AllocsPerRun's reach); the budget absorbs the
// delimiting barrier generations. The parent of the exchange plan spent
// 75 490 mallocs per 50 applications. Excluded under the race detector,
// whose instrumentation allocates.
func TestSolveSteadyStateAllocs(t *testing.T) {
	const (
		P      = 4
		warm   = 50
		meas   = 400
		batchB = 3
		budget = 100
	)
	lay, pcs := buildBatchFixture(t, P)
	w := realcomm.New(P)
	var delta uint64
	w.Run(func(p pcomm.Comm) {
		me := p.ID()
		nl := lay.NLocal(me)
		b := make([]float64, nl)
		for k := range b {
			b[k] = float64(k%7) + 0.5
		}
		y := make([]float64, nl)
		bs := make([][]float64, batchB)
		ys := make([][]float64, batchB)
		for k := range bs {
			bs[k] = b
			ys[k] = make([]float64, nl)
		}
		for i := 0; i < warm; i++ {
			pcs[me].Solve(p, y, b)
			pcs[me].SolveBatch(p, ys, bs)
		}
		p.Barrier()
		var m1, m2 runtime.MemStats
		if me == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m1)
		}
		p.Barrier()
		for i := 0; i < meas; i++ {
			pcs[me].Solve(p, y, b)
			pcs[me].SolveBatch(p, ys, bs)
		}
		p.Barrier()
		if me == 0 {
			runtime.ReadMemStats(&m2)
			delta = m2.Mallocs - m1.Mallocs
		}
		p.Barrier()
	})
	t.Logf("mallocs over %d Solve+SolveBatch rounds on %d procs: %d (budget %d)", meas, P, delta, budget)
	if delta > budget {
		t.Errorf("preconditioner application allocated %d objects over %d rounds, budget %d", delta, meas, budget)
	}
}
