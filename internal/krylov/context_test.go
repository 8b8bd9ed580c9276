package krylov

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

func TestGMRESNilContextUnchanged(t *testing.T) {
	a := matgen.Grid2D(16, 16)
	b := sparse.Ones(a.N)
	x := make([]float64, a.N)
	res, err := GMRES(a, nil, x, b, Options{Tol: 1e-8})
	if err != nil {
		t.Fatalf("GMRES: %v", err)
	}
	if !res.Converged {
		t.Fatalf("GMRES did not converge without a context: %+v", res)
	}
}

func TestGMRESExpiredContextReturnsCanceled(t *testing.T) {
	a := matgen.Grid2D(16, 16)
	b := sparse.Ones(a.N)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() (Result, error){
		"GMRES": func() (Result, error) {
			return GMRES(a, nil, make([]float64, a.N), b, Options{Ctx: ctx})
		},
		"FGMRES": func() (Result, error) {
			return FGMRES(a, nil, make([]float64, a.N), b, Options{Ctx: ctx})
		},
	} {
		res, err := run()
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s with expired context: err = %v, want ErrCanceled", name, err)
		}
		if res.Converged {
			t.Errorf("%s reported convergence on a canceled solve", name)
		}
	}
}

func TestGMRESDeadlineMidSolve(t *testing.T) {
	// A deadline that expires while iterating: the solver must stop with
	// ErrCanceled instead of running its full matvec budget.
	a := matgen.Grid2D(64, 64)
	b := sparse.Ones(a.N)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Millisecond))
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	res, err := GMRES(a, nil, make([]float64, a.N), b, Options{Tol: 1e-14, MaxMatVec: 1 << 30, Ctx: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res.NMatVec >= 1<<30 {
		t.Fatalf("solve ran to its budget despite the deadline")
	}
}

func TestDistGMRESCanceledCollectively(t *testing.T) {
	const P = 4
	a := matgen.Grid2D(24, 24)
	lay := blockLayout(t, a.N, P)
	b := sparse.Ones(a.N)
	bParts := lay.Scatter(b)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the solve starts

	errs := make([]error, P)
	ress := make([]Result, P)
	m := pcommtest.New(t, P, machine.Zero())
	m.SetWatchdog(30 * time.Second)
	m.Run(func(p pcomm.Comm) {
		dm := dist.NewMatrix(p, lay, a)
		x := make([]float64, lay.NLocal(p.ID()))
		ress[p.ID()], errs[p.ID()] = DistGMRES(p, dm, nil, x, bParts[p.ID()],
			Options{Restart: 10, Tol: 1e-10, Ctx: ctx})
	})
	for q, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("proc %d: err = %v, want ErrCanceled", q, err)
		}
		if ress[q].NMatVec != 0 {
			t.Errorf("proc %d performed %d matvecs under an expired context", q, ress[q].NMatVec)
		}
	}
}

func TestDistGMRESNilContextMatchesNoContext(t *testing.T) {
	// A background (never canceled) context must not change the result,
	// only the collective count.
	const P = 4
	a := matgen.Grid2D(24, 24)
	lay := blockLayout(t, a.N, P)
	b := sparse.Ones(a.N)
	bParts := lay.Scatter(b)

	solve := func(ctx context.Context) []float64 {
		xParts := make([][]float64, P)
		m := pcommtest.New(t, P, machine.Zero())
		m.SetWatchdog(30 * time.Second)
		m.Run(func(p pcomm.Comm) {
			dm := dist.NewMatrix(p, lay, a)
			x := make([]float64, lay.NLocal(p.ID()))
			if _, err := DistGMRES(p, dm, nil, x, bParts[p.ID()],
				Options{Restart: 20, Tol: 1e-10, Ctx: ctx}); err != nil {
				panic(err)
			}
			xParts[p.ID()] = x
		})
		return lay.Gather(xParts)
	}
	x0 := solve(nil)
	x1 := solve(context.Background())
	for i := range x0 {
		if x0[i] != x1[i] {
			t.Fatalf("solution differs at %d: %v vs %v", i, x0[i], x1[i])
		}
	}
}

// blockLayout distributes n unknowns over P processors in contiguous
// blocks; helper for the krylov tests.
func blockLayout(t *testing.T, n, p int) *dist.Layout {
	t.Helper()
	part := make([]int, n)
	per := (n + p - 1) / p
	for i := range part {
		q := i / per
		if q >= p {
			q = p - 1
		}
		part[i] = q
	}
	lay, err := dist.NewLayout(n, p, part)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}
