package krylov

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/pcomm"
	"repro/internal/sparse"
)

// DistOperator is a distributed matrix acting on local vectors;
// dist.Matrix satisfies it.
type DistOperator interface {
	MulVec(p pcomm.Comm, y, x []float64)
}

// DistPreconditioner applies M⁻¹ on local vectors; core.ProcPrecond
// satisfies it.
type DistPreconditioner interface {
	Solve(p pcomm.Comm, x, b []float64)
}

// distCtxErr takes the collective cancellation decision of the
// distributed solvers: every processor contributes its local view of the
// (shared) context and the OR is reduced, so either all processors abort
// the solve or none do — a processor-local exit from an SPMD loop would
// strand the others in the next collective. The extra AllReduce is only
// paid when a context is actually supplied; Ctx nil-ness is uniform
// across processors, so the collective schedule stays consistent.
func distCtxErr(p pcomm.Comm, ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	c := 0
	if ctx.Err() != nil {
		c = 1
	}
	if p.AllReduceInt(c, pcomm.OpMax) > 0 {
		if cause := ctx.Err(); cause != nil {
			return fmt.Errorf("%w: %v", ErrCanceled, cause)
		}
		// Another processor observed the cancellation first; this one
		// still reports the canceled error so all return consistently.
		return ErrCanceled
	}
	return nil
}

// DistIdentity is the unpreconditioned baseline.
type DistIdentity struct{}

// Solve copies b into x.
func (DistIdentity) Solve(p pcomm.Comm, x, b []float64) { copy(x, b) }

// DistJacobi is the diagonal preconditioner of Table 3, applied with no
// communication.
type DistJacobi struct {
	InvDiag []float64 // reciprocal local diagonal, owned-row order
}

// NewDistJacobi extracts the local diagonal of a distributed matrix.
func NewDistJacobi(lay *dist.Layout, a *sparse.CSR, me int) (*DistJacobi, error) {
	rows := lay.Rows[me]
	inv := make([]float64, len(rows))
	for k, g := range rows {
		d := a.At(g, g)
		if d == 0 {
			return nil, fmt.Errorf("krylov: zero diagonal at row %d", g)
		}
		inv[k] = 1 / d
	}
	return &DistJacobi{InvDiag: inv}, nil
}

// Solve applies the inverse diagonal.
func (j *DistJacobi) Solve(p pcomm.Comm, x, b []float64) {
	for i := range x {
		x[i] = b[i] * j.InvDiag[i]
	}
	p.Work(float64(len(x)))
}

// DistGMRES runs left-preconditioned restarted GMRES on the virtual
// machine: DistGMRESBatch on a batch of one, with Options.X0 as that
// system's guess. It is an SPMD collective: every processor calls it
// with its local slices of x and b; the collective reductions keep the
// control flow identical on all processors. Local BLAS-1 work is charged
// to the virtual clock.
func DistGMRES(p pcomm.Comm, op DistOperator, prec DistPreconditioner, x, b []float64, opt Options) (Result, error) {
	if len(b) != len(x) {
		return Result{}, fmt.Errorf("krylov: DistGMRES local length mismatch")
	}
	if opt.X0 != nil {
		if len(opt.X0) != len(x) {
			return Result{}, fmt.Errorf("krylov: DistGMRES X0 has local length %d, want %d", len(opt.X0), len(x))
		}
		copy(x, opt.X0)
		opt.X0 = nil
	}
	rs, err := DistGMRESBatch(p, op, prec, [][]float64{x}, [][]float64{b}, opt)
	return rs[0], err
}
