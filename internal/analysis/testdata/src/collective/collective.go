// Package collective exercises the collective analyzer: Barrier and
// AllReduce/AllGather must not sit behind control flow conditioned on
// proc-local state.
package collective

import (
	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

// Violations: the guard derives from p.ID() or Recv data.
func bad(p *engine.Proc, x int) {
	if p.ID() == 0 {
		p.Barrier() // want `collective Barrier inside a branch whose condition derives from proc-local state`
	}

	id := p.ID()
	if id > 0 {
		p.AllReduceInt(x, pcomm.OpSum) // want `collective AllReduceInt inside a branch whose condition derives from proc-local state`
	}

	switch p.ID() {
	case 0:
		p.Barrier() // want `collective Barrier inside a switch whose condition derives from proc-local state`
	}

	n := p.Recv(0, 0).(int)
	for i := 0; i < n; i++ {
		pcomm.AllGatherInts(p, []int{i}) // want `collective AllGatherInts inside a loop whose condition derives from proc-local state`
	}

	switch x {
	case id:
		p.Barrier() // want `collective Barrier inside a switch case whose condition derives from proc-local state`
	}
	if p.ID() == 0 {
		pcomm.BuildHalo(p, nil, 0, nil) // want `collective BuildHalo inside a branch whose condition derives from proc-local state`
	}
}

// badComm repeats the violations through the backend-agnostic interface:
// the guard reads c.ID() or data received via the generic fast path.
func badComm(c pcomm.Comm, x int) {
	if c.ID() == 0 {
		c.Barrier() // want `collective Barrier inside a branch whose condition derives from proc-local state`
	}
	sizes := pcomm.RecvSlice[int](c, 0, 0)
	if len(sizes) > 0 {
		c.AllReduceInt(x, pcomm.OpMax) // want `collective AllReduceInt inside a branch whose condition derives from proc-local state`
	}
}

// Clean: uniform guards — loop counters, AllReduce results, parameters.
func good(p *engine.Proc, iters int, tol float64) {
	for i := 0; i < iters; i++ {
		p.Barrier()
	}
	res := p.AllReduceFloat64(tol, pcomm.OpMax)
	if res > 1.0 {
		p.Barrier()
	}
	if iters > 3 {
		p.AllReduceInt(1, pcomm.OpSum)
	}
	// Proc-local work inside the branch is fine; only collectives rendezvous.
	if p.ID() == 0 {
		p.Send(1, 0, []int{p.ID()}, pcomm.BytesOfInts(1))
	}
}

// goodComm: a reduction result is uniform, so guarding on it is fine.
func goodComm(c pcomm.Comm, tol float64) {
	res := c.AllReduceFloat64(tol, pcomm.OpMax)
	if res > 1.0 {
		c.Barrier()
	}
}

// Suppressed: every processor provably computes the same flag.
func waived(p *engine.Proc, flags []bool) {
	if flags[p.ID()] {
		//pilutlint:ok collective flags is replicated identically on all procs
		p.Barrier()
	}
}
