package core

import (
	"repro/internal/ilu"
	"repro/internal/pcomm"
	"repro/internal/sparse"
)

// BlockJacobi is the classic zero-communication parallel preconditioner
// the interface phase of PILUT exists to beat: every processor
// ILUT-factors only its diagonal block, discarding all couplings to
// remote unknowns. Factorization and application need no messages at
// all, but the preconditioner ignores exactly the interface couplings —
// so its iteration counts degrade as the processor count (and therefore
// the discarded coupling mass) grows.
type BlockJacobi struct {
	factors *ilu.Factors // over local indices
}

// FactorBlockJacobi builds the local-block ILUT preconditioner. It is
// SPMD like Factor, but performs no communication.
func FactorBlockJacobi(p pcomm.Comm, plan *Plan, params ilu.Params) (*BlockJacobi, error) {
	lay := plan.Lay
	rows := lay.Rows[p.ID()]
	b := sparse.NewBuilder(len(rows), len(rows))
	for li, g := range rows {
		cols, vals := plan.A.Row(g)
		diagSeen := false
		for k, j := range cols {
			lj := lay.LocalIndex(p.ID(), j)
			if lj < 0 {
				continue // off-block coupling discarded
			}
			if lj == li {
				diagSeen = true
			}
			b.Add(li, lj, vals[k])
		}
		if !diagSeen {
			b.Add(li, li, 0) // ILUT's pivot floor will repair it
		}
	}
	f, st, err := ilu.ILUT(b.Build(), params)
	if err != nil {
		return nil, err
	}
	p.Work(st.Flops)
	return &BlockJacobi{factors: f}, nil
}

// Solve applies the block preconditioner: purely local triangular solves.
func (bj *BlockJacobi) Solve(p pcomm.Comm, x, b []float64) {
	bj.factors.Solve(x, b)
	p.Work(float64(2 * bj.factors.NNZ()))
}

// NNZ reports the local factor entries.
func (bj *BlockJacobi) NNZ() int { return bj.factors.NNZ() }

// SizeBytes estimates this processor's in-memory footprint, mirroring
// ProcPrecond.SizeBytes so the service cache can budget ladder-fallback
// entries the same way.
func (bj *BlockJacobi) SizeBytes() int64 {
	return bj.factors.L.SizeBytes() + bj.factors.U.SizeBytes()
}
