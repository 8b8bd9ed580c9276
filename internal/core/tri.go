package core

import "fmt"

// tri is one triangular factor of a processor's piece, laid out once for
// the sweep that applies it: flat CSR in sweep order (L: interior rows,
// then level by level; U: the reverse), every column resolved to an int32
// slot of the sweep's local vector
//
//	[ owned unknowns in sweep order | ghost interface unknowns ]
//
// so sweep row r writes slot r and the inner loop neither branches on the
// column's kind nor chases a per-row slice. Each sweep numbers its vector
// for itself — a sweep writes every slot before it reads it, so L and U
// never see each other's numbering. Ghost slots follow the order in which
// their owners produce the values (ascending elimination id under L,
// descending under U). This flat form is the only resident copy of the
// factor; Wire re-derives the row form from it.
type tri struct {
	tag int // message tag of the sweep's exchange

	row  []int32 // owned-row index of each sweep row
	step []int32 // step s solves sweep rows [step[s], step[s+1])
	ptr  []int32 // sweep row r holds entries [ptr[r], ptr[r+1]) of slot/val
	slot []int32
	val  []float64
	diag []float64 // U only: the pivot of each sweep row

	ghost []int   // elimination id behind each ghost slot, in slot order
	use   []int32 // first step that reads each ghost slot

	// The neighbour-exchange plan, ordered by step: derived collectively
	// from ghost/use by buildExchange, never shipped.
	send, recv []xmsg
}

// madeAt is the step at which the sweep solves level l of q. A sweep has
// q+1 steps, the interior block plus one per level: L runs the interior
// first and level l at step l+1; U runs level l at step q−1−l and the
// interior last.
func (t *tri) madeAt(l, q int) int32 {
	if t.diag == nil {
		return int32(l + 1)
	}
	return int32(q - 1 - l)
}

const noSlot = -1

// layOut replaces the row-form factors w — what the factorization driver
// produces and what travels between daemons — by the two flat sweeps. w
// must be well-formed (checkWire); its rows are not retained.
func (pc *ProcPrecond) layOut(w *WirePrecond) {
	nOwn := len(pc.owned)
	pc.newOf, pc.levels = w.NewOf, w.Levels

	row := make([]int32, 0, nOwn)
	step := make([]int32, 1, len(w.Levels)+2)
	for _, li := range w.InteriorLocal {
		row = append(row, int32(li))
	}
	step = append(step, int32(len(row)))
	for _, members := range w.LevelMembers {
		for _, li := range members {
			row = append(row, int32(li))
		}
		step = append(step, int32(len(row)))
	}
	slotOf := make([]int32, pc.plan.NInterface)
	pc.fwd = pc.newTri(tagSolveForward, row, step, w.LCols, w.LVals, nil, slotOf)

	// The U sweep is the mirror image: same rows, same steps, backwards.
	rrow := make([]int32, nOwn)
	for r, li := range row {
		rrow[nOwn-1-r] = li
	}
	rstep := make([]int32, len(step))
	for s, lo := range step {
		rstep[len(step)-1-s] = int32(nOwn) - lo
	}
	pc.bwd = pc.newTri(tagSolveBackward, rrow, rstep, w.UCols, w.UVals, w.UDiag, slotOf)
	pc.lanes = pc.lanesFor(1)
}

// newTri flattens one factor's rows (indexed by owned row, columns in
// elimination ids) along the given sweep order. diag is non-nil for U.
// slotOf is caller-provided scratch of NInterface cells.
func (pc *ProcPrecond) newTri(tag int, row, step []int32, cols [][]int, vals [][]float64, diag []float64, slotOf []int32) tri {
	plan := pc.plan
	tot, intBase, nInt := plan.TotInterior, plan.IntBase[pc.me], plan.NIntLocal[pc.me]
	nOwn := len(row)
	t := tri{tag: tag, row: row, step: step, ptr: make([]int32, nOwn+1)}

	// Where each of my unknowns lives: interiors by position in my block,
	// interface unknowns (mine or not) by position in the interface range.
	slotInt := make([]int32, nInt)
	for i := range slotOf {
		slotOf[i] = noSlot
	}
	for r, li := range row {
		if id := pc.newOf[li]; id < tot {
			slotInt[id-intBase] = int32(r)
		} else {
			slotOf[id-tot] = int32(r)
		}
		t.ptr[r+1] = t.ptr[r] + int32(len(cols[li]))
	}

	// An interface column nobody here owns is a ghost; walking the steps
	// in order, the first row to read it fixes its first-use step, parked
	// in slotOf as −2−step until the slots are handed out.
	for s := 0; s+1 < len(step); s++ {
		for r := step[s]; r < step[s+1]; r++ {
			for _, c := range cols[row[r]] {
				if c >= tot && slotOf[c-tot] == noSlot {
					slotOf[c-tot] = int32(-2 - s)
				}
			}
		}
	}
	ghostSlot := func(i int) {
		if v := slotOf[i]; v < noSlot {
			slotOf[i] = int32(nOwn + len(t.ghost))
			t.ghost = append(t.ghost, tot+i)
			t.use = append(t.use, -2-v)
		}
	}
	if diag == nil {
		for i := range slotOf {
			ghostSlot(i)
		}
	} else {
		for i := len(slotOf) - 1; i >= 0; i-- {
			ghostSlot(i)
		}
	}

	t.slot = make([]int32, t.ptr[nOwn])
	t.val = make([]float64, t.ptr[nOwn])
	k := 0
	for _, li := range row {
		for j, c := range cols[li] {
			switch {
			case c >= tot:
				t.slot[k] = slotOf[c-tot]
			case c >= intBase && c < intBase+nInt:
				t.slot[k] = slotInt[c-intBase]
			default:
				panic(fmt.Sprintf("core: processor %d's factor row references interior unknown %d of another processor", pc.me, c))
			}
			t.val[k] = vals[li][j]
			k++
		}
	}
	if diag != nil {
		t.diag = make([]float64, nOwn)
		for r, li := range row {
			t.diag[r] = diag[li]
		}
	}
	return t
}

// rows re-derives the factor's row form: per owned row, the columns as
// elimination ids and the values. The value rows alias the flat array.
func (t *tri) rows(newOf []int) ([][]int, [][]float64) {
	nOwn := len(t.row)
	ids := make([]int, len(t.slot))
	for k, s := range t.slot {
		if int(s) < nOwn {
			ids[k] = newOf[t.row[s]]
		} else {
			ids[k] = t.ghost[int(s)-nOwn]
		}
	}
	cols := make([][]int, nOwn)
	vals := make([][]float64, nOwn)
	for r, li := range t.row {
		a, b := t.ptr[r], t.ptr[r+1]
		cols[li], vals[li] = ids[a:b:b], t.val[a:b:b]
	}
	return cols, vals
}

// sizeBytes is the sweep's resident footprint: 12 bytes per stored entry
// plus the per-row, per-ghost and per-message index arrays.
func (t *tri) sizeBytes() int64 {
	n := 12*int64(len(t.slot)) + 4*int64(len(t.row)+len(t.step)+len(t.ptr)) +
		8*int64(len(t.diag)) + 12*int64(len(t.ghost))
	for _, ms := range [2][]xmsg{t.send, t.recv} {
		for _, m := range ms {
			n += 32 + 4*int64(len(m.slots))
		}
	}
	return n
}
