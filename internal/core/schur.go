package core

import (
	"sort"

	"repro/internal/ilu"
	"repro/internal/pcomm"
	"repro/internal/sparse"
)

// redRow is the current reduced-matrix row of an unfactored interface
// unknown, in combined indices (all columns ≥ n, i.e. unfactored).
type redRow struct {
	cols []int
	vals []float64
}

// schurBlockRound implements the paper's §7 sketch: partition-extracted
// concurrency for the interface. Every processor identifies the remaining
// rows that currently couple only to its own rows — in both directions —
// and factors them *sequentially* with no communication, all processors
// at once; the mutual independence of the per-processor blocks makes this
// a single level of the elimination order. A step of the threshold rule
// only. Returns the updated remaining list and whether any row was
// factored globally (if not, the caller falls back to an independent-set
// level).
func (d *driver) schurBlockRound(remaining []int) ([]int, bool) {
	p, s, pc, st := d.p, d.s, d.pc, d.st
	reduced, uF, uFSet := d.reduced, d.uF, d.uFSet
	par := d.opt.Params
	plan := pc.plan
	lay := plan.Lay
	me := pc.me
	n := plan.A.N

	// Publish which remote rows my reduced rows reference, so owners can
	// tell which of their rows are coupled across the boundary.
	var refs []int
	seen := make(map[int]bool)
	for _, li := range remaining {
		for _, c := range reduced[li].cols {
			o := c - n
			if lay.PartOf[o] != me && !seen[o] {
				seen[o] = true
				refs = append(refs, o)
			}
		}
	}
	sort.Ints(refs)
	all := pcomm.AllGatherInts(p, refs)
	remoteRef := make(map[int]bool)
	for q, ids := range all {
		if q == me {
			continue
		}
		for _, g := range ids {
			if lay.PartOf[g] == me {
				remoteRef[g] = true
			}
		}
	}

	// My block: remaining rows neither referencing nor referenced by a
	// remote row under the *current* structure (fill included).
	var block []int
	for _, li := range remaining {
		g := pc.owned[li]
		if remoteRef[g] {
			continue
		}
		local := true
		for _, c := range reduced[li].cols {
			if lay.PartOf[c-n] != me {
				local = false
				break
			}
		}
		if local {
			block = append(block, li)
		}
	}

	start := d.nl
	myOffset, total := d.claimIDs(len(block))
	if total == 0 {
		return remaining, false
	}

	// Assign ids and factor the block sequentially, exactly like a
	// processor's interior phase but over the reduced matrix.
	blockNew := make(map[int]int, len(block))
	for r, li := range block {
		blockNew[pc.owned[li]] = myOffset + r
	}
	pivotFn := func(k int) *ilu.URow {
		li := block[k-myOffset]
		if !uFSet[li] {
			return nil
		}
		return &uF[li]
	}

	// Recycled translation buffers: the kernel does not retain its inputs,
	// so one pair of buffers serves every row of the round.
	var tcBuf []int
	var tvBuf []float64
	translate := func(li int) ([]int, []float64) {
		rc := reduced[li].cols
		rv := reduced[li].vals
		tC := tcBuf[:0]
		tV := tvBuf[:0]
		// Prior L entries (already final ids < start) ride along so the 3rd
		// dropping rule sees the whole factored part.
		tC = append(tC, d.w.LCols[li]...)
		tV = append(tV, d.w.LVals[li]...)
		for idx, c := range rc {
			if nid, ok := blockNew[c-n]; ok {
				tC = append(tC, nid)
			} else {
				tC = append(tC, c)
			}
			tV = append(tV, rv[idx])
		}
		sparse.SortRow(tC, tV)
		tcBuf, tvBuf = tC, tV
		return tC, tV
	}

	blockSet := make(map[int]bool, len(block))
	for _, li := range block {
		blockSet[li] = true
	}
	for r, li := range block {
		g := pc.owned[li]
		tau := par.Tau * plan.RowTau[g]
		myNew := myOffset + r
		tC, tV := translate(li)
		lC, lV, urow := s.FactorInteriorRow(myNew, tC, tV, pivotFn, myOffset, tau, par.M, par.PivotPerturb, st)
		urow.Orig = g
		uF[li] = urow
		uFSet[li] = true
		d.w.NewOf[li] = myNew
		d.w.LCols[li], d.w.LVals[li] = lC, lV
		d.w.UCols[li], d.w.UVals[li] = urow.Cols, urow.Vals
		d.w.UDiag[li] = urow.Diag
		reduced[li] = redRow{}
	}
	d.w.Levels = append(d.w.Levels, LevelInfo{Start: start, Size: total})
	d.w.LevelMembers = append(d.w.LevelMembers, block)

	// Eliminate the block's unknowns from my other remaining rows. Blocks
	// of different processors are mutually invisible, so this is local.
	var next []int
	for _, li := range remaining {
		if blockSet[li] {
			continue
		}
		g := pc.owned[li]
		tau := par.Tau * plan.RowTau[g]
		tC, tV := translate(li)
		lC, lV, nrC, nrV := s.EliminateRowSeq(n+g, tC, tV,
			pivotFn, myOffset, myOffset+len(block), tau, par.M, par.K, st)
		d.w.LCols[li], d.w.LVals[li] = lC, lV
		reduced[li] = redRow{nrC, nrV}
		pc.Stats.CopiedEntries += len(nrC)
		next = append(next, li)
	}
	return next, true
}
