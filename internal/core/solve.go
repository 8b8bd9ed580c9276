package core

import (
	"repro/internal/pcomm"
)

// solveLane is the solution scratch of one right-hand side during a
// triangular sweep, in elimination-order ids: this processor's interior
// unknowns, and every interface unknown of the system (the level
// exchanges replicate those on every processor).
type solveLane struct {
	xInt   []float64
	xIface []float64
}

func (pc *ProcPrecond) newLane() solveLane {
	return solveLane{
		xInt:   make([]float64, pc.plan.NIntLocal[pc.me]),
		xIface: make([]float64, pc.plan.NInterface),
	}
}

// lanesFor returns B retained lanes, growing the set on first use of a
// wider batch. A sweep writes every position before it reads it, so a
// lane needs no clearing between applications.
func (pc *ProcPrecond) lanesFor(B int) []solveLane {
	for len(pc.lanes) < B {
		pc.lanes = append(pc.lanes, pc.newLane())
	}
	return pc.lanes[:B]
}

// levelValues is the per-level exchange payload of the triangular solves:
// the solution values of this processor's level members for every
// right-hand side of the application, right-hand-side-major. One exchange
// per level serves the whole batch, so the q synchronization points of an
// application (§5 of the paper) are paid once per batch instead of once
// per right-hand side — the latency amortization the solver service's
// batching layer exists to exploit.
type levelValues struct {
	NewIDs []int
	Vals   []float64 // len(NewIDs) × B values, grouped by right-hand side
}

// publishLevel makes the just-solved values of level l visible to every
// processor for all lanes with a single collective (one synchronization
// point per level, as in §5 of the paper: the communication volume is
// proportional to the interface size and there are q implicit
// synchronization points per sweep).
func (pc *ProcPrecond) publishLevel(p pcomm.Comm, l int, lanes []solveLane) {
	members := pc.levelMembers[l]
	tot := pc.plan.TotInterior
	msg := levelValues{
		NewIDs: make([]int, len(members)),
		Vals:   make([]float64, 0, len(members)*len(lanes)),
	}
	for k, li := range members {
		msg.NewIDs[k] = pc.newOf[li]
	}
	for _, ln := range lanes {
		for _, li := range members {
			msg.Vals = append(msg.Vals, ln.xIface[pc.newOf[li]-tot])
		}
	}
	all := p.AllGather(msg, pcomm.BytesOfInts(len(msg.NewIDs))+pcomm.BytesOfFloats(len(msg.Vals)))
	for _, a := range all {
		lv := a.(levelValues)
		nm := len(lv.NewIDs)
		for bi, ln := range lanes {
			vals := lv.Vals[bi*nm : (bi+1)*nm]
			for k, nid := range lv.NewIDs {
				ln.xIface[nid-tot] = vals[k]
			}
		}
	}
}

// forward solves L·ys[i] = bs[i] for this processor's unknowns, one
// right-hand side per lane, with one exchange per level for all of them.
func (pc *ProcPrecond) forward(p pcomm.Comm, ys, bs [][]float64, lanes []solveLane) {
	tot := pc.plan.TotInterior
	intBase := pc.plan.IntBase[pc.me]
	flops := 0

	// Interior unknowns: purely local, ascending elimination order. An
	// interior L row references only earlier local interiors.
	for bi, ln := range lanes {
		b := bs[bi]
		for _, li := range pc.interiorLocal {
			s := b[li]
			cols := pc.lCols[li]
			vals := pc.lVals[li]
			for k, c := range cols {
				s -= vals[k] * ln.xInt[c-intBase]
			}
			flops += 2 * len(cols)
			ln.xInt[pc.newOf[li]-intBase] = s
		}
	}
	p.Work(float64(flops))

	// Interface unknowns level by level: an interface L row references
	// local interiors and interface pivots of earlier levels.
	for l := range pc.levels {
		flops = 0
		for bi, ln := range lanes {
			b := bs[bi]
			for _, li := range pc.levelMembers[l] {
				s := b[li]
				cols := pc.lCols[li]
				vals := pc.lVals[li]
				for k, c := range cols {
					if c < tot {
						s -= vals[k] * ln.xInt[c-intBase]
					} else {
						s -= vals[k] * ln.xIface[c-tot]
					}
				}
				flops += 2 * len(cols)
				ln.xIface[pc.newOf[li]-tot] = s
			}
		}
		p.Work(float64(flops))
		pc.publishLevel(p, l, lanes)
	}
	pc.collect(ys, lanes)
}

// backward solves U·ys[i] = bs[i], traversing the interface levels in
// reverse and finishing with the local interior block.
func (pc *ProcPrecond) backward(p pcomm.Comm, ys, bs [][]float64, lanes []solveLane) {
	tot := pc.plan.TotInterior
	intBase := pc.plan.IntBase[pc.me]

	for l := len(pc.levels) - 1; l >= 0; l-- {
		flops := 0
		// Members in descending elimination order: independent-set levels
		// have no intra-level coupling, but the Schur-block levels of the
		// §7 variant are sequential within a processor, so later members
		// must be solved first.
		members := pc.levelMembers[l]
		for bi, ln := range lanes {
			b := bs[bi]
			for mi := len(members) - 1; mi >= 0; mi-- {
				li := members[mi]
				s := b[li]
				cols := pc.uCols[li]
				vals := pc.uVals[li]
				for k, c := range cols {
					// Interface U rows reference only later interface levels.
					s -= vals[k] * ln.xIface[c-tot]
				}
				flops += 2*len(cols) + 1
				ln.xIface[pc.newOf[li]-tot] = s / pc.uDiag[li]
			}
		}
		p.Work(float64(flops))
		pc.publishLevel(p, l, lanes)
	}

	// Interior unknowns in reverse local order; their U rows reference
	// later local interiors and interface unknowns (all levels known now).
	flops := 0
	for bi, ln := range lanes {
		b := bs[bi]
		for k := len(pc.interiorLocal) - 1; k >= 0; k-- {
			li := pc.interiorLocal[k]
			s := b[li]
			cols := pc.uCols[li]
			vals := pc.uVals[li]
			for idx, c := range cols {
				if c < tot {
					s -= vals[idx] * ln.xInt[c-intBase]
				} else {
					s -= vals[idx] * ln.xIface[c-tot]
				}
			}
			flops += 2*len(cols) + 1
			ln.xInt[pc.newOf[li]-intBase] = s / pc.uDiag[li]
		}
	}
	p.Work(float64(flops))
	pc.collect(ys, lanes)
}

// collect copies each lane's owned results out in owned-row order.
func (pc *ProcPrecond) collect(ys [][]float64, lanes []solveLane) {
	tot := pc.plan.TotInterior
	intBase := pc.plan.IntBase[pc.me]
	for bi, ln := range lanes {
		y := ys[bi]
		for li, nid := range pc.newOf {
			if nid < tot {
				y[li] = ln.xInt[nid-intBase]
			} else {
				y[li] = ln.xIface[nid-tot]
			}
		}
	}
}

// SolveForward solves L·y = b for this processor's unknowns. b and y are
// local vectors in owned-row order (y and b may alias). Collective: every
// processor must call it together.
func (pc *ProcPrecond) SolveForward(p pcomm.Comm, y, b []float64) {
	if len(y) != len(pc.owned) || len(b) != len(pc.owned) {
		panic("core: SolveForward local vector length mismatch")
	}
	ys, bs := [1][]float64{y}, [1][]float64{b}
	pc.forward(p, ys[:], bs[:], pc.lanes[:1])
}

// SolveBackward solves U·y = b for this processor's unknowns (y and b
// may alias). Collective.
func (pc *ProcPrecond) SolveBackward(p pcomm.Comm, y, b []float64) {
	if len(y) != len(pc.owned) || len(b) != len(pc.owned) {
		panic("core: SolveBackward local vector length mismatch")
	}
	ys, bs := [1][]float64{y}, [1][]float64{b}
	pc.backward(p, ys[:], bs[:], pc.lanes[:1])
}

// Solve applies the preconditioner: y = U⁻¹·L⁻¹·b on the distributed
// factors (y and b may alias). Collective.
func (pc *ProcPrecond) Solve(p pcomm.Comm, y, b []float64) {
	pc.SolveForward(p, y, b)
	pc.SolveBackward(p, y, y)
}

// SolveBatch applies the preconditioner to B right-hand sides at once:
// ys[i] = U⁻¹·L⁻¹·bs[i] (ys[i] and bs[i] may alias). The local
// arithmetic is identical to B calls of Solve, but every level of the
// forward and backward substitutions publishes the values of the entire
// batch in one exchange. Collective: every processor must call it
// together with the same batch size.
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
	pc.forward(p, ys, bs, lanes)
	pc.backward(p, ys, ys, lanes)
}

// NumLevels reports q, the number of independent sets the factorization
// used for the interface unknowns.
func (pc *ProcPrecond) NumLevels() int { return len(pc.levels) }

// Levels returns the level structure (shared across processors).
func (pc *ProcPrecond) Levels() []LevelInfo { return pc.levels }

// NNZ reports the local stored entries of L and U (unit diagonal of L
// implicit, diagonal of U counted).
func (pc *ProcPrecond) NNZ() int {
	n := 0
	for li := range pc.owned {
		n += len(pc.lCols[li]) + len(pc.uCols[li]) + 1
	}
	return n
}

// SizeBytes estimates the in-memory footprint of this processor's piece
// of the preconditioner: 16 bytes per stored L/U entry plus the index and
// buffer arrays. The solver service's cache accounts its byte budget with
// the sum over processors.
func (pc *ProcPrecond) SizeBytes() int64 {
	var n int64
	for li := range pc.owned {
		n += 16 * int64(len(pc.lCols[li])+len(pc.uCols[li]))
	}
	n += 8 * int64(len(pc.uDiag)+len(pc.owned)+len(pc.newOf)+len(pc.interiorLocal))
	for _, ln := range pc.lanes {
		n += 8 * int64(len(ln.xInt)+len(ln.xIface))
	}
	for _, m := range pc.levelMembers {
		n += 8 * int64(len(m))
	}
	return n
}
