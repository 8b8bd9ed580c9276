// Package krylov implements the iterative solvers of the paper's
// evaluation: restarted GMRES with left preconditioning (Saad & Schultz,
// reference [13] of the paper) in a serial form (GMRES) and a
// distributed form that advances any number of right-hand sides in
// lock-step (DistGMRESBatch, with DistGMRES as its batch of one). Both
// run the one dense kernel in arnoldi.go.
package krylov

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/sparse"
)

// ErrCanceled is returned (possibly wrapped, test with errors.Is) when a
// solve stops because its context was canceled or its deadline expired.
// The partially converged Result is still returned alongside it.
var ErrCanceled = errors.New("krylov: solve canceled")

// ctxErr reports the cancellation state of an optional context as a
// wrapped ErrCanceled, or nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if cause := ctx.Err(); cause != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, cause)
	}
	return nil
}

// Preconditioner applies M⁻¹ to a vector. ilu.Factors satisfies it.
type Preconditioner interface {
	Solve(x, b []float64)
}

// identityPrec is the "no preconditioning" fallback.
type identityPrec struct{}

func (identityPrec) Solve(x, b []float64) { copy(x, b) }

// Options configure a GMRES solve.
type Options struct {
	// Restart is the Krylov subspace dimension between restarts
	// (GMRES(Restart)). Default 30.
	Restart int
	// MaxMatVec bounds the total matrix–vector products. Default 10·n.
	MaxMatVec int
	// Tol is the relative residual reduction target: stop when
	// ‖M⁻¹(b−Ax)‖ ≤ Tol·‖M⁻¹b‖ (left preconditioning monitors the
	// preconditioned residual, as the paper's solver does). Default 1e-8.
	Tol float64
	// Ctx, when non-nil, is checked at every iteration: a canceled
	// context (or an expired deadline) makes the solve return ErrCanceled
	// together with the partial Result. In the distributed solvers the
	// cancellation decision is taken collectively, so every virtual
	// processor leaves the SPMD solve together. All processors of a run
	// must pass the same context (nil-ness included).
	Ctx context.Context
	// X0, when non-nil, warm-starts the solve: it is copied into the
	// iterate before the first residual, replacing whatever x held. The
	// classic use is a matrix sequence, where the previous step's solution
	// starts the next step a few digits in. On an unchanged system a
	// warm start from the converged solution terminates at the first
	// residual check (one matrix–vector product). Length must equal x's:
	// global n for GMRES, the processor's LOCAL piece for
	// DistGMRES, which copies it into its one system's iterate.
	// DistGMRESBatch rejects a non-nil X0 — per-system guesses travel in
	// xs there. X0 is read once at entry and never written.
	X0 []float64
}

func (o Options) normalize(n int) Options {
	if o.Restart <= 0 {
		o.Restart = 30
	}
	if o.MaxMatVec <= 0 {
		o.MaxMatVec = 10 * n
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// Result reports a solve's outcome.
type Result struct {
	Converged bool
	NMatVec   int     // matrix–vector products performed (the paper's NMV)
	Residual  float64 // final preconditioned relative residual
	Restarts  int
	// History records the monitored relative residual after every
	// matrix–vector product (restart checks included), in order, in the
	// serial solvers and the distributed ones alike: len(History) equals
	// NMatVec. The sequence is a pure function of the input data, so it is
	// bitwise identical across communication backends — the
	// backend-equivalence tests compare it with math.Float64bits.
	History []float64
}

// GMRES solves A·x = b with left-preconditioned restarted GMRES; x holds
// the initial guess on entry and the solution on exit. A nil prec means
// no preconditioning. It is the serial reference the distributed driver
// is tested against: the same kernel over sparse.Dot instead of
// reductions. prec is applied to every residual and product, and the
// stopping rule monitors the residual it yields.
func GMRES(a *sparse.CSR, prec Preconditioner, x, b []float64, opt Options) (Result, error) {
	if prec == nil {
		prec = identityPrec{}
	}
	n := a.N
	if a.M != n || len(x) != n || len(b) != n {
		return Result{}, errors.New("krylov: GMRES dimension mismatch")
	}
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return Result{}, fmt.Errorf("krylov: GMRES X0 has length %d, want %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
	}
	opt = opt.normalize(n)
	m := opt.Restart

	v := vectors(m+1, n)
	q := newHessenberg(m)
	tmp := make([]float64, n)
	res := Result{}

	// ‖M⁻¹b‖ for the stopping rule.
	prec.Solve(tmp, b)
	bnorm := sparse.Norm2(tmp)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		res.Converged = true
		return res, nil
	}

	for res.NMatVec < opt.MaxMatVec {
		if err := ctxErr(opt.Ctx); err != nil {
			return res, err
		}
		// r = M⁻¹(b − A·x)
		a.MulVec(tmp, x)
		res.NMatVec++
		for i := range tmp {
			tmp[i] = b[i] - tmp[i]
		}
		prec.Solve(v[0], tmp)
		beta := sparse.Norm2(v[0])
		res.Residual = beta / bnorm
		res.History = append(res.History, res.Residual)
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res, nil
		}
		sparse.Scale(1/beta, v[0])
		q.start(beta)

		k := 0
		for k < m && res.NMatVec < opt.MaxMatVec {
			if err := ctxErr(opt.Ctx); err != nil {
				return res, err
			}
			a.MulVec(tmp, v[k])
			res.NMatVec++
			prec.Solve(v[k+1], tmp)
			norm := q.orthogonalize(v, k)
			res.Residual = q.rotate(k) / bnorm
			res.History = append(res.History, res.Residual)
			k++
			if res.Residual <= opt.Tol || norm == 0 {
				break
			}
		}
		y, err := q.solve(k)
		if err != nil {
			return res, err
		}
		for j, yj := range y {
			sparse.Axpy(yj, v[j], x)
		}
		res.Restarts++
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}
