package core

import (
	"repro/internal/pcomm"
)

// lanesFor returns B retained lanes, growing the set on first use of a
// wider batch; layOut makes lane 0. A lane is the solution scratch of one
// right-hand side during a triangular sweep: the sweep's local vector,
// this processor's unknowns followed by the ghost interface unknowns its
// rows read (see tri). A sweep writes every slot before it reads it, so a
// lane needs no clearing between applications or between the two sweeps.
func (pc *ProcPrecond) lanesFor(B int) [][]float64 {
	for len(pc.lanes) < B {
		n := len(pc.owned) + max(len(pc.fwd.ghost), len(pc.bwd.ghost))
		pc.lanes = append(pc.lanes, make([]float64, n))
	}
	return pc.lanes[:B]
}

// sweep solves T·ys[i] = bs[i] for this processor's unknowns, one
// right-hand side per lane, step by step (§5 of the paper: the interior
// block is local, the interface unknowns follow level by level).
// Communication is the precomputed neighbour exchange: before a step the
// messages whose values it is the first to read are awaited — and only
// those, so a processor runs on through steps, sweeps and applications
// until it truly needs a value that has not arrived — and after it the
// messages whose last value it produced leave, one per neighbour for the
// whole batch (pcomm.PostSlots/AwaitSlots). A message sent after step a is needed at a later step and
// itself needs only messages sent before a, and sends never block, so the
// lazy receives cannot deadlock. Per-row arithmetic is in stored entry
// order whatever the exchange does, which keeps every solution bit for
// bit what a serial sweep over the gathered factors gives.
//
//pilut:hotpath
func (pc *ProcPrecond) sweep(p pcomm.Comm, t *tri, ys, bs, lanes [][]float64) {
	send, recv := t.send, t.recv
	row, ptr, slot, val, diag := t.row, t.ptr, t.slot, t.val, t.diag
	for s := 0; s+1 < len(t.step); s++ {
		for ; len(recv) > 0 && int(recv[0].step) == s; recv = recv[1:] {
			pcomm.AwaitSlots(p, int(recv[0].peer), t.tag, recv[0].slots, lanes)
		}
		lo, hi := t.step[s], t.step[s+1]
		for bi, x := range lanes {
			y, b := ys[bi], bs[bi]
			for r := lo; r < hi; r++ {
				vs := val[ptr[r]:ptr[r+1]]
				ss := slot[ptr[r]:ptr[r+1]]
				ss = ss[:len(vs)]
				li := row[r]
				sum := b[li]
				for k, v := range vs {
					sum -= v * x[ss[k]]
				}
				if diag != nil {
					sum /= diag[r]
				}
				x[r] = sum
				y[li] = sum
			}
		}
		flops := 2 * int(ptr[hi]-ptr[lo])
		if diag != nil {
			flops += int(hi - lo)
		}
		p.Work(float64(len(lanes) * flops))
		for ; len(send) > 0 && int(send[0].step) == s; send = send[1:] {
			pcomm.PostSlots(p, int(send[0].peer), t.tag, send[0].slots, lanes)
		}
	}
}

// apply solves T·ys[i] = bs[i] with T = L (t = &pc.fwd) or U (t = &pc.bwd),
// U traversing the interface levels in reverse and finishing with the
// local interior block. Within a level the U sweep takes the members in
// descending elimination order, as it does the interior block; an
// independent set has no intra-level coupling, so that order only fixes
// the layout.
//
// A piece that came through FromWire derives its exchange plan here, on
// its first application — the earliest point at which all P pieces are
// inside one run.
func (pc *ProcPrecond) apply(p pcomm.Comm, t *tri, ys, bs, lanes [][]float64) {
	if !pc.wired {
		pc.buildExchange(p)
	}
	pc.sweep(p, t, ys, bs, lanes)
}

// SolveForward solves L·y = b for this processor's unknowns. b and y are
// local vectors in owned-row order (y and b may alias). Collective: every
// processor must call it together.
func (pc *ProcPrecond) SolveForward(p pcomm.Comm, y, b []float64) {
	if len(y) != len(pc.owned) || len(b) != len(pc.owned) {
		panic("core: SolveForward local vector length mismatch")
	}
	ys, bs := [1][]float64{y}, [1][]float64{b}
	pc.apply(p, &pc.fwd, ys[:], bs[:], pc.lanes[:1])
}

// SolveBackward solves U·y = b for this processor's unknowns (y and b
// may alias). Collective.
func (pc *ProcPrecond) SolveBackward(p pcomm.Comm, y, b []float64) {
	if len(y) != len(pc.owned) || len(b) != len(pc.owned) {
		panic("core: SolveBackward local vector length mismatch")
	}
	ys, bs := [1][]float64{y}, [1][]float64{b}
	pc.apply(p, &pc.bwd, ys[:], bs[:], pc.lanes[:1])
}

// Solve applies the preconditioner: y = U⁻¹·L⁻¹·b on the distributed
// factors (y and b may alias). Collective.
func (pc *ProcPrecond) Solve(p pcomm.Comm, y, b []float64) {
	pc.SolveForward(p, y, b)
	pc.SolveBackward(p, y, y)
}

// SolveBatch applies the preconditioner to B right-hand sides at once:
// ys[i] = U⁻¹·L⁻¹·bs[i] (ys[i] and bs[i] may alias). The local
// arithmetic is identical to B calls of Solve, but every message of the
// forward and backward substitutions carries the values of the entire
// batch, so the per-message latency is paid once per batch — the
// amortization the solver service's batching layer exists to exploit.
// Collective: every processor must call it together with the same batch
// size.
func (pc *ProcPrecond) SolveBatch(p pcomm.Comm, ys, bs [][]float64) {
	if len(ys) != len(bs) {
		panic("core: SolveBatch batch size mismatch")
	}
	if len(bs) == 0 {
		return
	}
	for i := range bs {
		if len(ys[i]) != len(pc.owned) || len(bs[i]) != len(pc.owned) {
			panic("core: SolveBatch local vector length mismatch")
		}
	}
	lanes := pc.lanesFor(len(bs))
	pc.apply(p, &pc.fwd, ys, bs, lanes)
	pc.apply(p, &pc.bwd, ys, ys, lanes)
}

// NumLevels reports q, the number of independent sets the factorization
// used for the interface unknowns.
func (pc *ProcPrecond) NumLevels() int { return len(pc.levels) }

// Levels returns the level structure (shared across processors).
func (pc *ProcPrecond) Levels() []LevelInfo { return pc.levels }

// NNZ reports the local stored entries of L and U (unit diagonal of L
// implicit, diagonal of U counted).
func (pc *ProcPrecond) NNZ() int {
	return len(pc.fwd.slot) + len(pc.bwd.slot) + len(pc.owned)
}

// SizeBytes estimates the in-memory footprint of this processor's piece
// of the preconditioner: the two flat sweeps (12 bytes per stored L/U
// entry plus their index arrays and exchange plans) and the solve lanes.
// The solver service's cache accounts its byte budget with the sum over
// processors.
func (pc *ProcPrecond) SizeBytes() int64 {
	n := pc.fwd.sizeBytes() + pc.bwd.sizeBytes()
	n += 8 * int64(len(pc.owned)+len(pc.newOf))
	for _, ln := range pc.lanes {
		n += 8 * int64(len(ln))
	}
	return n
}
