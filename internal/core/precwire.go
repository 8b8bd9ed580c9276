package core

import (
	"fmt"
	"math"
)

// WirePrecond is the row form of one processor's ProcPrecond: everything
// the triangular solves read that cannot be rebuilt from the elimination
// plan, with columns as elimination ids. It is what the factorization
// driver fills in and what a factorization shipped between daemons
// travels as, one WirePrecond per processor next to the matrix it
// factored; the receiver reconstructs the plan deterministically (same
// matrix, same layout, same parameters on both ends) and rehydrates the
// pieces with FromWire. Shipping the rows instead of refactoring
// preserves bitwise identity by construction — the bytes that cross the
// wire are the bytes the owner's factorization produced. The flat sweep
// layout and the exchange plan a ProcPrecond solves with are derived from
// these rows on arrival, never shipped.
type WirePrecond struct {
	Me            int
	NewOf         []int
	LCols         [][]int
	LVals         [][]float64
	UCols         [][]int
	UVals         [][]float64
	UDiag         []float64
	InteriorLocal []int
	Levels        []LevelInfo
	LevelMembers  [][]int
	Stats         Stats
}

// Wire extracts the serializable form of the piece, re-deriving the rows
// from the flat sweeps. The value rows alias the piece's storage; callers
// encode them before the entry mutates (entries are immutable once
// published, so in practice: any time).
func (pc *ProcPrecond) Wire() WirePrecond {
	w := WirePrecond{
		Me:     pc.me,
		NewOf:  pc.newOf,
		Levels: pc.levels,
		Stats:  pc.Stats,
	}
	w.LCols, w.LVals = pc.fwd.rows(pc.newOf)
	w.UCols, w.UVals = pc.bwd.rows(pc.newOf)
	w.UDiag = make([]float64, len(pc.owned))
	for r, li := range pc.bwd.row {
		w.UDiag[li] = pc.bwd.diag[r]
	}
	order := make([]int, len(pc.owned))
	for r, li := range pc.fwd.row {
		order[r] = int(li)
	}
	step := pc.fwd.step
	w.InteriorLocal = order[:step[1]:step[1]]
	w.LevelMembers = make([][]int, len(pc.levels))
	for l := range w.LevelMembers {
		w.LevelMembers[l] = order[step[l+1]:step[l+2]:step[l+2]]
	}
	return w
}

// FromWire rebuilds processor w.Me's preconditioner piece against a
// locally reconstructed plan. The plan must come from the same matrix
// and layout the piece was factored under. Laying the factors out flat
// indexes by every column and index the rows carry, so all of them are
// checked first: a malformed or mismatched piece is an error here, never
// a panic or a silently wrong solve later. Not collective — the exchange
// plan is derived on the piece's first application, when all P pieces
// are in one run.
func FromWire(plan *Plan, w WirePrecond) (*ProcPrecond, error) {
	if err := checkWire(plan, &w); err != nil {
		return nil, err
	}
	pc := &ProcPrecond{plan: plan, me: w.Me, owned: plan.Lay.Rows[w.Me], Stats: w.Stats}
	pc.layOut(&w)
	return pc, nil
}

// checkWire verifies everything layOut and the sweeps rely on: shapes,
// that the interior and level lists name every owned row once, that new
// ids follow the plan (interiors) and the level ranges (interface rows,
// consecutive within a processor's share of a level), that every L
// entry references an earlier unknown and every U entry a later one,
// neither of them another processor's interior unknown, which no
// exchange carries — and the values: each row's columns strictly
// increasing (a repeated column would be applied twice), every entry
// finite, every pivot finite and non-zero. A factorization never produces
// anything else (pivots are repaired to a floor), so a piece that fails
// here was damaged on the way, and a sweep would turn it into a silently
// different answer.
func checkWire(plan *Plan, w *WirePrecond) error {
	if w.Me < 0 || w.Me >= plan.Lay.P {
		return fmt.Errorf("core: wire precond for processor %d of a %d-processor plan", w.Me, plan.Lay.P)
	}
	owned := plan.Lay.Rows[w.Me]
	nOwn := len(owned)
	if len(w.NewOf) != nOwn || len(w.LCols) != nOwn || len(w.UCols) != nOwn ||
		len(w.LVals) != nOwn || len(w.UVals) != nOwn || len(w.UDiag) != nOwn {
		return fmt.Errorf("core: wire precond rows (%d) do not match plan rows (%d) for processor %d",
			len(w.NewOf), nOwn, w.Me)
	}
	if len(w.LevelMembers) != len(w.Levels) {
		return fmt.Errorf("core: wire precond has %d level member lists for %d levels",
			len(w.LevelMembers), len(w.Levels))
	}
	n, tot := plan.A.N, plan.TotInterior
	intBase, nInt := plan.IntBase[w.Me], plan.NIntLocal[w.Me]

	next := tot
	for l, lv := range w.Levels {
		if lv.Start != next || lv.Size < 0 {
			return fmt.Errorf("core: wire precond level %d covers ids [%d,%d), expected to start at %d", l, lv.Start, lv.Start+lv.Size, next)
		}
		next += lv.Size
	}
	if next != n {
		return fmt.Errorf("core: wire precond levels end at id %d of %d", next, n)
	}

	listed := make([]bool, nOwn)
	list := func(li int, where string, l int) error {
		if li < 0 || li >= nOwn {
			return fmt.Errorf("core: wire precond %s[%d] names local row %d of %d", where, l, li, nOwn)
		}
		if listed[li] {
			return fmt.Errorf("core: wire precond %s[%d] names local row %d a second time", where, l, li)
		}
		listed[li] = true
		return nil
	}
	if len(w.InteriorLocal) != nInt {
		return fmt.Errorf("core: wire precond lists %d interior rows, the plan has %d", len(w.InteriorLocal), nInt)
	}
	for k, li := range w.InteriorLocal {
		if err := list(li, "InteriorLocal", k); err != nil {
			return err
		}
		if w.NewOf[li] != intBase+k || plan.NewOfInterior[owned[li]] != intBase+k {
			return fmt.Errorf("core: wire precond interior row %d has new id %d, the plan numbers interior %d as %d",
				li, w.NewOf[li], k, intBase+k)
		}
	}
	nListed := nInt
	for l, members := range w.LevelMembers {
		lv := w.Levels[l]
		for k, li := range members {
			if err := list(li, "LevelMembers", l); err != nil {
				return err
			}
			id := w.NewOf[li]
			if id < lv.Start || id >= lv.Start+lv.Size || k > 0 && id != w.NewOf[members[k-1]]+1 {
				return fmt.Errorf("core: wire precond row %d of level %d has new id %d outside the level's run of ids [%d,%d)",
					li, l, id, lv.Start, lv.Start+lv.Size)
			}
		}
		nListed += len(members)
	}
	if nListed != nOwn {
		return fmt.Errorf("core: wire precond lists %d of processor %d's %d rows", nListed, w.Me, nOwn)
	}

	foreign := func(c int) bool { return c < tot && (c < intBase || c >= intBase+nInt) }
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for li, id := range w.NewOf {
		if len(w.LCols[li]) != len(w.LVals[li]) || len(w.UCols[li]) != len(w.UVals[li]) {
			return fmt.Errorf("core: wire precond row %d is ragged: %d/%d L and %d/%d U columns/values",
				li, len(w.LCols[li]), len(w.LVals[li]), len(w.UCols[li]), len(w.UVals[li]))
		}
		if d := w.UDiag[li]; d == 0 || !finite(d) {
			return fmt.Errorf("core: wire precond row %d (id %d) has pivot %v, not a finite non-zero one", li, id, d)
		}
		prev := -1
		for k, c := range w.LCols[li] {
			if c < 0 || c >= id {
				return fmt.Errorf("core: wire precond L row %d (id %d) references unknown %d, not an earlier one", li, id, c)
			}
			if foreign(c) {
				return fmt.Errorf("core: wire precond L row %d references interior unknown %d of another processor", li, c)
			}
			if c <= prev {
				return fmt.Errorf("core: wire precond L row %d lists unknown %d after %d, not in increasing order", li, c, prev)
			}
			if !finite(w.LVals[li][k]) {
				return fmt.Errorf("core: wire precond L row %d holds the non-finite value %v", li, w.LVals[li][k])
			}
			prev = c
		}
		prev = -1
		for k, c := range w.UCols[li] {
			if c <= id || c >= n {
				return fmt.Errorf("core: wire precond U row %d (id %d) references unknown %d, not a later one of %d", li, id, c, n)
			}
			if foreign(c) {
				return fmt.Errorf("core: wire precond U row %d references interior unknown %d of another processor", li, c)
			}
			if c <= prev {
				return fmt.Errorf("core: wire precond U row %d lists unknown %d after %d, not in increasing order", li, c, prev)
			}
			if !finite(w.UVals[li][k]) {
				return fmt.Errorf("core: wire precond U row %d holds the non-finite value %v", li, w.UVals[li][k])
			}
			prev = c
		}
	}
	return nil
}
