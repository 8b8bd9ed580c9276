//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/ilu"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
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
			pcommtest.QuiesceAllocs()
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

// TestFactorSteadyStateAllocs is the same guard for the factorization
// itself, in the scoreboard's configuration at a smaller size: real
// backend, p = 4, ILUT*(10, 1e-4, 2) on a torso matrix, after two
// factorizations have grown the pooled scratches (row kernels, MIS
// workspace and its exchange plan, id tables, pushed-row lists) to their
// high-water mark. What remains is what a factorization hands out or
// gathers — the factors' arena chunks and flat sweeps, a level's member
// list and mask, the collectives' payloads and results; every message (the
// plan requests, the MIS flags and notices, the pivot rows) travels on a
// pooled buffer. So the count scales with levels, not with rows or
// entries: about 3 280 here, some 20 per level and rank; 3 980 while
// every all-gather boxed its contribution and copied the boxed results,
// 5 533 when the pivot rows went boxed and every level built fresh
// exchange lists, 22 554 when each of five MIS rounds made four fresh
// payloads for each neighbour, 33 655 at the parent of the pooled MIS
// workspace and the dense level tables, which rebuilt two maps and nine
// arrays per level.
// The budget sits about 1.5 % above the reading.
func TestFactorSteadyStateAllocs(t *testing.T) {
	const (
		P      = 4
		warm   = 2
		meas   = 4
		budget = 3330 // per factorization, all ranks together
	)
	a := matgen.Torso(12, 12, 12, 1)
	plan := mustPrepare(t, a, P, 1)
	opt := Options{Params: ilu.Params{M: 10, Tau: 1e-4, K: 2}, Seed: 1}
	var delta uint64
	var levels int
	realcomm.New(P).Run(func(p pcomm.Comm) {
		for i := 0; i < warm; i++ {
			Factor(p, plan, opt)
		}
		p.Barrier()
		var m1, m2 runtime.MemStats
		if p.ID() == 0 {
			pcommtest.QuiesceAllocs()
			runtime.ReadMemStats(&m1)
		}
		p.Barrier()
		for i := 0; i < meas; i++ {
			levels = Factor(p, plan, opt).Stats.NumLevels
		}
		p.Barrier()
		if p.ID() == 0 {
			runtime.ReadMemStats(&m2)
			delta = (m2.Mallocs - m1.Mallocs) / meas
		}
		p.Barrier()
	})
	t.Logf("mallocs per factorization (n = %d, %d levels, %d procs): %d (budget %d)", a.N, levels, P, delta, budget)
	if delta > budget {
		t.Errorf("a steady-state factorization allocated %d objects, budget %d", delta, budget)
	}
}
