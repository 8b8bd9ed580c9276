package krylov

import (
	"fmt"
	"math"

	"repro/internal/pcomm"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// DistBatchOperator is a distributed operator that can apply itself to a
// batch of vectors with one ghost exchange; dist.Matrix satisfies it.
type DistBatchOperator interface {
	DistOperator
	MulVecBatch(p pcomm.Comm, ys, xs [][]float64)
}

// DistBatchPreconditioner applies M⁻¹ to a batch of vectors sharing one
// level-synchronization pipeline; core.ProcPrecond satisfies it.
type DistBatchPreconditioner interface {
	DistPreconditioner
	SolveBatch(p pcomm.Comm, xs, bs [][]float64)
}

// system is one right-hand side inside the lock-step driver: its
// iterate, Krylov basis, Hessenberg and convergence state, and the
// operands and result of the batched primitive about to run over a
// selection of systems.
type system struct {
	id    int // position in the batch
	x, b  []float64
	v     [][]float64 // Krylov basis, Restart+1 local vectors
	tmp   []float64
	q     *hessenberg
	bnorm float64 // ‖M⁻¹b‖
	steps int     // Arnoldi steps completed in the current cycle
	done  bool    // converged or out of budget
	res   *Result

	in, out []float64 // matvec and precond: out ← op(in); dots: ⟨out, in⟩; norms: ‖out‖
	val     float64   // what dots or norms computed
}

// lockstep is the machinery the systems of one DistGMRESBatch share: the
// operators and the views handed to their batch interfaces, rebuilt in
// place for every application.
type lockstep struct {
	p         pcomm.Comm
	op        DistOperator
	bop       DistBatchOperator // nil: per-vector fallback
	prec      DistPreconditioner
	bprec     DistBatchPreconditioner // nil: per-vector fallback
	ins, outs [][]float64
}

func (d *lockstep) views(sel []*system) (outs, ins [][]float64) {
	d.outs, d.ins = d.outs[:0], d.ins[:0]
	for _, s := range sel {
		d.outs = append(d.outs, s.out)
		d.ins = append(d.ins, s.in)
	}
	return d.outs, d.ins
}

// matvec applies the operator to every selected system with one ghost
// exchange.
func (d *lockstep) matvec(sel []*system) {
	outs, ins := d.views(sel)
	t0 := d.p.Time()
	if d.bop != nil {
		d.bop.MulVecBatch(d.p, outs, ins)
	} else {
		for i := range ins {
			d.op.MulVec(d.p, outs[i], ins[i])
		}
	}
	if tr := d.p.Tracer(); tr.Enabled() {
		tr.Span("krylov", "matvec", t0, d.p.Time(), trace.I("rhs", len(sel)))
	}
}

// precond applies M⁻¹ to every selected system through one
// level-synchronization pipeline.
func (d *lockstep) precond(sel []*system) {
	outs, ins := d.views(sel)
	t0 := d.p.Time()
	if d.bprec != nil {
		d.bprec.SolveBatch(d.p, outs, ins)
	} else {
		for i := range ins {
			d.prec.Solve(d.p, outs[i], ins[i])
		}
	}
	if tr := d.p.Tracer(); tr.Enabled() {
		tr.Span("krylov", "precond", t0, d.p.Time(), trace.I("rhs", len(sel)))
	}
}

// dots leaves the global inner product ⟨out, in⟩ of every selected
// system in its val.
func (d *lockstep) dots(sel []*system) {
	for _, s := range sel {
		s.val = sparse.Dot(s.out, s.in)
		d.p.Work(float64(2 * len(s.out)))
	}
	d.reduce(sel)
}

// norms leaves the global ‖out‖ of every selected system in its val.
func (d *lockstep) norms(sel []*system) {
	for _, s := range sel {
		s.val = sparse.Dot(s.out, s.out)
		d.p.Work(float64(2 * len(s.out)))
	}
	d.reduce(sel)
	for _, s := range sel {
		if s.val < 0 {
			s.val = 0
		}
		s.val = math.Sqrt(s.val)
	}
}

// reduce sums each selected system's val over the processors with one
// collective: an all-reduce when one system is selected, one all-gather
// of every system's partial otherwise. Either way the partials are
// folded in rank order, so a system's sums — and with them its iterates
// and iteration counts — do not depend on the batch it is solved in.
// The selection is the same on every processor, so is the choice.
func (d *lockstep) reduce(sel []*system) {
	if len(sel) == 1 {
		sel[0].val = d.p.AllReduceFloat64(sel[0].val, pcomm.OpSum)
		return
	}
	partial := make([]float64, len(sel)) // handed over to the all-gather
	for i, s := range sel {
		partial[i] = s.val
	}
	all := pcomm.AllGatherSlice(d.p, partial)
	for i, s := range sel {
		s.val = 0
		for q := range all {
			s.val += all[q][i]
		}
	}
}

// DistGMRESBatch solves A·xs[i] = bs[i] for a batch of right-hand sides
// with left-preconditioned restarted GMRES in lock-step: every Arnoldi
// step performs one batched matrix–vector product (single ghost
// exchange), one batched preconditioner application (single
// level-synchronization pipeline) and batched reductions (one collective
// for the whole batch instead of one per right-hand side). Each system
// keeps its own Krylov basis, Hessenberg matrix and convergence state;
// systems that converge drop out of the batched operations while the
// rest continue. The per-system arithmetic — and therefore the computed
// solutions and iteration counts — does not depend on the batch: a
// system solved alone (DistGMRES is this function on a batch of one)
// gives the same bits; only the communication schedule is shared.
//
// It is an SPMD collective: every processor calls it with its local
// slices, with the same batch size and options. If op or prec do not
// implement the batch interfaces, the corresponding applications fall
// back to per-vector calls (still correct, no latency sharing).
//
// Each xs[i] holds that system's initial guess on entry (zeros for a
// cold start, the previous step's solution for a warm start) and the
// solution on exit; Options.X0 is rejected here because a single shared
// guess cannot express per-system warm starts.
func DistGMRESBatch(p pcomm.Comm, op DistOperator, prec DistPreconditioner, xs, bs [][]float64, opt Options) ([]Result, error) {
	B := len(bs)
	if len(xs) != B {
		return nil, fmt.Errorf("krylov: DistGMRESBatch batch size mismatch")
	}
	if opt.X0 != nil {
		return nil, fmt.Errorf("krylov: DistGMRESBatch does not take Options.X0; seed xs[i] per system")
	}
	if B == 0 {
		return nil, nil
	}
	n := len(xs[0])
	for i := range xs {
		if len(xs[i]) != n || len(bs[i]) != n {
			return nil, fmt.Errorf("krylov: DistGMRESBatch local length mismatch")
		}
	}
	if prec == nil {
		prec = DistIdentity{}
	}
	// Normalize against the *global* size for the matvec budget.
	opt = opt.normalize(p.AllReduceInt(n, pcomm.OpSum))
	m := opt.Restart

	d := lockstep{p: p, op: op, prec: prec, ins: make([][]float64, 0, B), outs: make([][]float64, 0, B)}
	d.bop, _ = op.(DistBatchOperator)
	d.bprec, _ = prec.(DistBatchPreconditioner)
	results := make([]Result, B)
	all := make([]*system, B)
	for i := range all {
		vs := vectors(m+2, n)
		all[i] = &system{id: i, x: xs[i], b: bs[i], v: vs[:m+1], tmp: vs[m+1], q: newHessenberg(m), res: &results[i]}
	}
	cyc := make([]*system, 0, B)  // the systems of the current restart cycle
	live := make([]*system, 0, B) // those still taking Arnoldi steps in it
	tr := p.Tracer()
	// report records the residual a system just reached, at a restart
	// check or after an Arnoldi step.
	report := func(s *system, event string, norm float64) {
		s.res.Residual = norm / s.bnorm
		s.res.History = append(s.res.History, s.res.Residual)
		if tr.Enabled() {
			tr.Instant("krylov", event, p.Time(), trace.I("rhs", s.id),
				trace.I("matvec", s.res.NMatVec), trace.F("residual", s.res.Residual))
		}
	}

	// ‖M⁻¹b‖ per system for the stopping rule; a zero right-hand side is
	// solved by x = 0.
	for _, s := range all {
		s.in, s.out = s.b, s.tmp
	}
	d.precond(all)
	d.norms(all)
	for _, s := range all {
		s.bnorm = s.val
		if s.bnorm == 0 {
			for j := range s.x {
				s.x[j] = 0
			}
			s.res.Converged = true
			s.done = true
		}
	}

	for {
		cyc = cyc[:0]
		for _, s := range all {
			if !s.done && s.res.NMatVec < opt.MaxMatVec {
				cyc = append(cyc, s)
			}
		}
		if len(cyc) == 0 {
			return results, nil
		}
		if err := distCtxErr(p, opt.Ctx); err != nil {
			return results, err
		}

		// r = M⁻¹(b − A·x); the systems it does not satisfy yet start a
		// cycle from it.
		for _, s := range cyc {
			s.in, s.out = s.x, s.tmp
		}
		d.matvec(cyc)
		for _, s := range cyc {
			s.res.NMatVec++
			for j := range s.tmp {
				s.tmp[j] = s.b[j] - s.tmp[j]
			}
			p.Work(float64(n))
			s.in, s.out = s.tmp, s.v[0]
		}
		d.precond(cyc)
		d.norms(cyc)
		live = live[:0]
		for _, s := range cyc {
			beta := s.val
			report(s, "restart", beta)
			if s.res.Residual <= opt.Tol {
				s.res.Converged = true
				s.done = true
				continue
			}
			sparse.Scale(1/beta, s.v[0])
			p.Work(float64(n))
			s.q.start(beta)
			s.steps = 0
			live = append(live, s)
		}
		cyc = append(cyc[:0], live...)

		for k := 0; k < m; k++ {
			// Systems at their matvec budget leave the cycle with the
			// Arnoldi steps they have completed.
			live = keep(live, func(s *system) bool { return s.res.NMatVec < opt.MaxMatVec })
			if len(live) == 0 {
				break
			}
			if err := distCtxErr(p, opt.Ctx); err != nil {
				return results, err
			}

			// Arnoldi step with modified Gram–Schmidt.
			for _, s := range live {
				s.in, s.out = s.v[k], s.tmp
			}
			d.matvec(live)
			for _, s := range live {
				s.res.NMatVec++
				s.in, s.out = s.tmp, s.v[k+1]
			}
			d.precond(live)
			for j := 0; j <= k; j++ {
				for _, s := range live {
					s.in = s.v[j]
				}
				d.dots(live)
				for _, s := range live {
					s.q.h[j][k] = s.val
					sparse.Axpy(-s.val, s.in, s.out)
					p.Work(float64(2 * n))
				}
			}
			d.norms(live)
			for _, s := range live {
				s.q.h[k+1][k] = s.val
				if s.val > 0 {
					sparse.Scale(1/s.val, s.out)
					p.Work(float64(n))
				}
				report(s, "iteration", s.q.rotate(k))
				s.steps = k + 1
			}
			// A converged system, or one whose subspace is exhausted
			// (lucky breakdown), waits for the end of the cycle.
			live = keep(live, func(s *system) bool { return s.res.Residual > opt.Tol && s.val != 0 })
		}

		// Cycle end: every system that started it updates its iterate
		// from its own least-squares system.
		for _, s := range cyc {
			y, err := s.q.solve(s.steps)
			if err != nil {
				return results, fmt.Errorf("%w (rhs %d)", err, s.id)
			}
			for j, yj := range y {
				sparse.Axpy(yj, s.v[j], s.x)
				p.Work(float64(2 * n))
			}
			s.res.Restarts++
			if s.res.Residual <= opt.Tol {
				s.res.Converged = true
				s.done = true
			}
		}
	}
}

// keep filters sel in place.
func keep(sel []*system, ok func(*system) bool) []*system {
	kept := sel[:0]
	for _, s := range sel {
		if ok(s) {
			kept = append(kept, s)
		}
	}
	return kept
}
