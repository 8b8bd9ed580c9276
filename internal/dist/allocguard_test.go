//go:build !race

package dist

import (
	"runtime"
	"testing"

	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/pcomm/realcomm"
)

// Alloc-regression guard for the product path (ISSUE 8): steady-state
// MulVec and MulVecBatch on real goroutines must not allocate — ghost
// exchanges circulate pooled buffers through pcomm.Floats, the inner loop
// walks pre-resolved refs instead of maps, and the batch scratch is owned
// by the Matrix. Measured via the global malloc counter around a quiesced
// window (the kernels run on worker goroutines, out of AllocsPerRun's
// reach); the budget absorbs the delimiting barrier generations. Excluded
// under the race detector, whose instrumentation allocates.
func TestMulVecSteadyStateAllocs(t *testing.T) {
	const (
		P      = 4
		warm   = 50
		meas   = 400
		batchB = 3
		budget = 100
	)
	a := matgen.Grid2D(24, 24)
	lay := partitionedLayout(t, a, P)
	w := realcomm.New(P)
	var delta uint64
	w.Run(func(p pcomm.Comm) {
		m := NewMatrix(p, lay, a)
		nl := lay.NLocal(p.ID())
		x := make([]float64, nl)
		y := make([]float64, nl)
		for k := range x {
			x[k] = float64(k%7) + 0.5
		}
		xs := make([][]float64, batchB)
		ys := make([][]float64, batchB)
		for b := range xs {
			xs[b] = x
			ys[b] = make([]float64, nl)
		}
		for i := 0; i < warm; i++ {
			m.MulVec(p, y, x)
			m.MulVecBatch(p, ys, xs)
		}
		p.Barrier()
		var m1, m2 runtime.MemStats
		if p.ID() == 0 {
			pcommtest.QuiesceAllocs()
			runtime.ReadMemStats(&m1)
		}
		p.Barrier()
		for i := 0; i < meas; i++ {
			m.MulVec(p, y, x)
			m.MulVecBatch(p, ys, xs)
		}
		p.Barrier()
		if p.ID() == 0 {
			runtime.ReadMemStats(&m2)
			delta = m2.Mallocs - m1.Mallocs
		}
		p.Barrier()
	})
	t.Logf("mallocs over %d MulVec+MulVecBatch rounds on %d procs: %d (budget %d)", meas, P, delta, budget)
	if delta > budget {
		t.Errorf("product path allocated %d objects over %d rounds, budget %d", delta, meas, budget)
	}
}
