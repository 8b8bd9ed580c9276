package krylov

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

// batchFixture factors a grid problem on P processors and returns
// everything a batched solve needs.
func batchFixture(t *testing.T, p int) (*sparse.CSR, *dist.Layout, []*core.ProcPrecond) {
	t.Helper()
	a := matgen.Grid2D(24, 24)
	plan, err := core.Prepare(a, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	lay := plan.Lay
	pcs := make([]*core.ProcPrecond, p)
	m := pcommtest.New(t, p, machine.Zero())
	m.SetWatchdog(30 * time.Second)
	m.Run(func(proc pcomm.Comm) {
		pcs[proc.ID()] = core.Factor(proc, plan, core.Options{Params: ilu.Params{M: 8, Tau: 1e-4, K: 2}, Seed: 5})
	})
	return a, lay, pcs
}

func randomRHS(n, b int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, b)
	for bi := range out {
		out[bi] = make([]float64, n)
		for i := range out[bi] {
			out[bi][i] = rng.NormFloat64()
		}
	}
	return out
}

// TestDistGMRESBatchMatchesSingleSolves states the merge: a system's
// bits do not depend on the batch it is solved in, a real batch shares
// its collectives, and a batch of one is DistGMRES — the whole
// pcomm.Result of the run (clock, flops, messages, bytes, collectives)
// on the modelled T3D, not only the solution.
func TestDistGMRESBatchMatchesSingleSolves(t *testing.T) {
	const P = 4
	a, lay, pcs := batchFixture(t, P)
	opt := Options{Restart: 15, Tol: 1e-9, MaxMatVec: 2000}
	for _, B := range []int{1, 3} {
		bsGlobal := randomRHS(a.N, B, 17)
		// The batch of one is compared clock and all, so it runs on the
		// modelled machine whatever backend the suite is on.
		world := func() pcomm.World { return pcommtest.New(t, P, machine.T3D()) }
		if B == 1 {
			world = func() pcomm.World { return modelled.New(P, machine.T3D()) }
		}

		// Reference: each right-hand side solved alone.
		wantX := make([][]float64, B)
		wantRes := make([]Result, B)
		singles := make([]pcomm.Result, B)
		for bi := 0; bi < B; bi++ {
			parts := lay.Scatter(bsGlobal[bi])
			xParts := make([][]float64, P)
			singles[bi] = world().Run(func(p pcomm.Comm) {
				dm := dist.NewMatrix(p, lay, a)
				x := make([]float64, lay.NLocal(p.ID()))
				r, err := DistGMRES(p, dm, pcs[p.ID()], x, parts[p.ID()], opt)
				if err != nil {
					panic(err)
				}
				xParts[p.ID()] = x
				if p.ID() == 0 {
					wantRes[bi] = r
				}
			})
			wantX[bi] = lay.Gather(xParts)
		}

		// Batched solve of all B at once.
		gotParts := make([][][]float64, B)
		for bi := range gotParts {
			gotParts[bi] = make([][]float64, P)
		}
		var gotRes []Result
		batch := world().Run(func(p pcomm.Comm) {
			dm := dist.NewMatrix(p, lay, a)
			xs := make([][]float64, B)
			bs := make([][]float64, B)
			for bi := 0; bi < B; bi++ {
				xs[bi] = make([]float64, lay.NLocal(p.ID()))
				bs[bi] = lay.Scatter(bsGlobal[bi])[p.ID()]
			}
			rs, err := DistGMRESBatch(p, dm, pcs[p.ID()], xs, bs, opt)
			if err != nil {
				panic(err)
			}
			for bi := 0; bi < B; bi++ {
				gotParts[bi][p.ID()] = xs[bi]
			}
			if p.ID() == 0 {
				gotRes = rs
			}
		})

		for bi := 0; bi < B; bi++ {
			if !gotRes[bi].Converged {
				t.Fatalf("B=%d rhs %d did not converge in batch: %+v", B, bi, gotRes[bi])
			}
			if !reflect.DeepEqual(gotRes[bi], wantRes[bi]) {
				t.Errorf("B=%d rhs %d: batch result %+v, single %+v", B, bi, gotRes[bi], wantRes[bi])
			}
			got := lay.Gather(gotParts[bi])
			for i := range got {
				if got[i] != wantX[bi][i] {
					t.Fatalf("B=%d rhs %d: batch solution differs at %d: %v vs %v (batch arithmetic must match single-RHS exactly)",
						B, bi, i, got[i], wantX[bi][i])
				}
			}
		}

		if B == 1 {
			if !reflect.DeepEqual(batch, singles[0]) {
				t.Errorf("a batch of one is not DistGMRES on the modelled T3D:\nbatch  %+v\nsingle %+v", batch, singles[0])
			}
			continue
		}
		// The whole point: lock-step batching shares collectives. Per
		// processor, the batch run must synchronize far less than the
		// single runs combined.
		var collectivesSingle int64
		for _, res := range singles {
			collectivesSingle += res.PerProc[0].Collectives
		}
		if c := batch.PerProc[0].Collectives; c >= collectivesSingle {
			t.Fatalf("batch run used %d collectives, %d singles used %d — no sharing happened", c, B, collectivesSingle)
		}
	}
}

func TestDistGMRESBatchMixedConvergence(t *testing.T) {
	// One trivial right-hand side (zero: converges instantly) alongside
	// hard ones: the batch must keep iterating the others.
	const P = 2
	a, lay, pcs := batchFixture(t, P)
	bsGlobal := randomRHS(a.N, 3, 23)
	for i := range bsGlobal[1] {
		bsGlobal[1][i] = 0
	}
	var gotRes []Result
	m := pcommtest.New(t, P, machine.Zero())
	m.SetWatchdog(60 * time.Second)
	m.Run(func(p pcomm.Comm) {
		dm := dist.NewMatrix(p, lay, a)
		xs := make([][]float64, 3)
		bs := make([][]float64, 3)
		for bi := 0; bi < 3; bi++ {
			xs[bi] = make([]float64, lay.NLocal(p.ID()))
			bs[bi] = lay.Scatter(bsGlobal[bi])[p.ID()]
		}
		rs, err := DistGMRESBatch(p, dm, pcs[p.ID()], xs, bs, Options{Restart: 15, Tol: 1e-8})
		if err != nil {
			panic(err)
		}
		if p.ID() == 0 {
			gotRes = rs
		}
	})
	for bi, r := range gotRes {
		if !r.Converged {
			t.Errorf("rhs %d did not converge: %+v", bi, r)
		}
	}
	if gotRes[1].NMatVec != 0 {
		t.Errorf("zero rhs performed %d matvecs", gotRes[1].NMatVec)
	}
}

func TestDistGMRESBatchCanceled(t *testing.T) {
	const P = 2
	a, lay, pcs := batchFixture(t, P)
	bsGlobal := randomRHS(a.N, 2, 29)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := make([]error, P)
	m := pcommtest.New(t, P, machine.Zero())
	m.SetWatchdog(30 * time.Second)
	m.Run(func(p pcomm.Comm) {
		dm := dist.NewMatrix(p, lay, a)
		xs := make([][]float64, 2)
		bs := make([][]float64, 2)
		for bi := 0; bi < 2; bi++ {
			xs[bi] = make([]float64, lay.NLocal(p.ID()))
			bs[bi] = lay.Scatter(bsGlobal[bi])[p.ID()]
		}
		_, errs[p.ID()] = DistGMRESBatch(p, dm, pcs[p.ID()], xs, bs, Options{Restart: 10, Ctx: ctx})
	})
	for q, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("proc %d: err = %v, want ErrCanceled", q, err)
		}
	}
}

func TestDistGMRESBatchFallbackWithoutBatchInterfaces(t *testing.T) {
	// A plain (non-batch) preconditioner still works through the
	// per-vector fallback path.
	const P = 2
	a, lay, _ := batchFixture(t, P)
	bsGlobal := randomRHS(a.N, 2, 31)
	var gotRes []Result
	m := pcommtest.New(t, P, machine.Zero())
	m.SetWatchdog(60 * time.Second)
	m.Run(func(p pcomm.Comm) {
		dm := dist.NewMatrix(p, lay, a)
		jac, err := NewDistJacobi(lay, a, p.ID())
		if err != nil {
			panic(err)
		}
		xs := make([][]float64, 2)
		bs := make([][]float64, 2)
		for bi := 0; bi < 2; bi++ {
			xs[bi] = make([]float64, lay.NLocal(p.ID()))
			bs[bi] = lay.Scatter(bsGlobal[bi])[p.ID()]
		}
		rs, err := DistGMRESBatch(p, dm, jac, xs, bs, Options{Restart: 30, Tol: 1e-6, MaxMatVec: 4000})
		if err != nil {
			panic(err)
		}
		if p.ID() == 0 {
			gotRes = rs
		}
	})
	for bi, r := range gotRes {
		if !r.Converged {
			t.Errorf("rhs %d did not converge with Jacobi fallback: %+v", bi, r)
		}
	}
}
