package sparse

import (
	"math"
	"sort"
)

// WorkRow is the full-length working row of Algorithm 1 in the paper: a
// dense value array w paired with a companion list of its nonzero
// positions, so that scatter, gather and reset are all sparse operations.
// One WorkRow is reused across all rows of a factorization.
type WorkRow struct {
	val   []float64
	state []uint8 // per position: live | listed, one byte so a touch reads one flag line
	idx   []int
	ents  []Ent // entry buffer of Tail and KeepLargest; per-row so concurrent WorkRows never share
}

// A position's state bits. A live position is always listed; a listed one
// that is not live was dropped and waits for the next compaction or reset.
const (
	live   uint8 = 1 << iota // position currently holds an entry
	listed                   // position is in the companion index list
)

// NewWorkRow returns a WorkRow over vectors of length n.
func NewWorkRow(n int) *WorkRow {
	return &WorkRow{val: make([]float64, n), state: make([]uint8, n)}
}

// Len reports the full (dense) length of the row.
func (w *WorkRow) Len() int { return len(w.val) }

// Resize grows the dense arrays to length n; it never shrinks, so a
// pooled WorkRow serves factorizations of any size it has ever seen.
// The row must be reset (Resize preserves no marked state).
func (w *WorkRow) Resize(n int) {
	if n <= len(w.val) {
		return
	}
	w.val = make([]float64, n)
	w.state = make([]uint8, n)
	w.idx = w.idx[:0]
}

// PoisonClean verifies the row is fully reset — no marks, no live
// indices, every value zero — and then scribbles sentinel garbage over
// the spare capacity of the index list and the entry buffer, the only storage
// a correct kernel may not read. It panics if the row is dirty. This is
// the stale-scratch tripwire of the poisoning property tests: a kernel
// that consumes leftover state from a previous factorization either
// trips the clean check here or reads a sentinel and corrupts its output
// in a way the bitwise run-to-run comparison catches.
func (w *WorkRow) PoisonClean() {
	for j := range w.val {
		if w.val[j] != 0 || w.state[j] != 0 {
			panic("sparse: WorkRow not clean: stale state survived a Reset")
		}
	}
	if len(w.idx) != 0 {
		panic("sparse: WorkRow not clean: index list non-empty")
	}
	const sentinel = -0x5A5A5A5A
	spare := w.idx[:cap(w.idx)]
	for k := range spare {
		spare[k] = sentinel
	}
	ents := w.ents[:cap(w.ents)]
	for k := range ents {
		ents[k] = Ent{sentinel, math.NaN()}
	}
}

// NNZ reports the number of positions currently marked (explicit zeros
// that were Set remain counted until dropped or reset).
func (w *WorkRow) NNZ() int {
	n := 0
	for _, j := range w.idx {
		if w.state[j]&live != 0 {
			n++
		}
	}
	return n
}

// Scatter loads the sparse row (cols, vals) into the working row,
// accumulating into any positions already present.
//
//pilut:hotpath
func (w *WorkRow) Scatter(cols []int, vals []float64) {
	for k, j := range cols {
		w.Add(j, vals[k])
	}
}

// Add accumulates v into position j, marking it if previously unset.
//
//pilut:hotpath
func (w *WorkRow) Add(j int, v float64) {
	w.touch(j)
	w.val[j] += v
}

// touch makes position j live, listing it on its first touch since the
// last reset.
//
//pilut:hotpath
func (w *WorkRow) touch(j int) {
	if s := w.state[j]; s != live|listed {
		if s == 0 {
			w.idx = append(w.idx, j) //pilutlint:ok hotalloc index list grows to peak row nnz once, then is reused across rows
		}
		w.state[j] = live | listed
	}
}

// Set overwrites position j with v, marking it if previously unset.
//
//pilut:hotpath
func (w *WorkRow) Set(j int, v float64) {
	w.touch(j)
	w.val[j] = v
}

// Get returns the value at position j (0 when unset).
//
//pilut:hotpath
func (w *WorkRow) Get(j int) float64 { return w.val[j] }

// Has reports whether position j is currently marked.
//
//pilut:hotpath
func (w *WorkRow) Has(j int) bool { return w.state[j]&live != 0 }

// Drop unmarks position j and zeroes its value. The companion index list
// is compacted lazily by Indices/Gather, so Drop is O(1).
//
//pilut:hotpath
func (w *WorkRow) Drop(j int) {
	if w.state[j]&live != 0 {
		w.state[j] = listed
		w.val[j] = 0
	}
}

// Indices returns the sorted list of currently-marked positions. The
// returned slice is freshly compacted and owned by the WorkRow; it is valid
// until the next mutating call.
//
//pilut:hotpath
func (w *WorkRow) Indices() []int {
	out := w.idx[:0]
	for _, j := range w.idx {
		if w.state[j]&live != 0 {
			out = append(out, j) //pilutlint:ok hotalloc compacts in place into idx's own backing array, never grows
		} else {
			w.state[j] = 0
		}
	}
	w.idx = out
	sort.Ints(w.idx)
	return w.idx
}

// Reset clears every marked position; an O(nnz) sparse operation
// corresponding to "w = 0" in Algorithm 1.
//
//pilut:hotpath
func (w *WorkRow) Reset() {
	for _, j := range w.idx {
		w.state[j] = 0
		w.val[j] = 0
	}
	w.idx = w.idx[:0]
}

// Gather appends the marked positions in [lo, hi) in increasing column
// order to (cols, vals) and returns the extended slices. The working row
// is left unchanged.
//
//pilut:hotpath
func (w *WorkRow) Gather(lo, hi int, cols []int, vals []float64) ([]int, []float64) {
	for _, j := range w.Indices() {
		if j >= lo && j < hi {
			cols = append(cols, j)        //pilutlint:ok hotalloc appends into the caller's slice, which owns the final row storage
			vals = append(vals, w.val[j]) //pilutlint:ok hotalloc appends into the caller's slice, which owns the final row storage
		}
	}
	return cols, vals
}

// DropBelow unmarks every position in [lo, hi) whose magnitude is < tol,
// except the protected position keep (pass −1 to protect nothing).
// Returns the number of dropped entries.
//
//pilut:hotpath
func (w *WorkRow) DropBelow(lo, hi int, tol float64, keep int) int {
	dropped := 0
	for _, j := range w.idx {
		if !w.Has(j) || j < lo || j >= hi || j == keep {
			continue
		}
		if math.Abs(w.val[j]) < tol {
			w.Drop(j)
			dropped++
		}
	}
	return dropped
}

// KeepLargest retains at most m marked positions within [lo, hi) — the m
// of largest magnitude — and unmarks the rest. The protected position keep
// is never dropped and does not count toward m (pass −1 for none).
// Ties are broken toward smaller column index so the result is
// deterministic. Returns the number of dropped entries.
//
//pilut:hotpath
func (w *WorkRow) KeepLargest(lo, hi, m int, keep int) int {
	cand := w.entBuf(len(w.idx))
	nc := 0
	for _, j := range w.idx {
		if w.Has(j) && j >= lo && j < hi && j != keep {
			cand[nc] = Ent{j, w.val[j]}
			nc++
		}
	}
	cand = cand[:nc]
	if nc <= m {
		return 0
	}
	SelectLargest(cand, m)
	for _, e := range cand[m:] {
		w.Drop(e.Col)
	}
	return nc - m
}

// Tail ends a row's elimination in a single walk over the touched
// positions, which it resets on the way: entries of magnitude < tol are
// dropped, the rest are split at column split, at most mLo survive below
// it and at most mHi at or above it (the largest by magnitude, ties toward
// the smaller column; a cap ≤ 0 is no cap), and both parts come back in
// increasing column order. The position keep is protected where it lies
// at or above split — never dropped, not counted toward mHi — and if it
// is not among the survivors of its part it is created with value fill
// (filled reports that). dLo counts the entries dropped from the lower
// part; the upper part's are counted by cause, dHiTol below the tolerance
// and dHiCut removed by the cap. The returned slices are the WorkRow's own
// buffer, valid until its next Tail or KeepLargest; the row itself is left
// reset.
//
//pilut:hotpath
func (w *WorkRow) Tail(split int, tol float64, mLo, mHi, keep int, fill float64) (lo, hi []Ent, dLo, dHiTol, dHiCut int, filled bool) {
	// One buffer, half of it for each part; either part may be every
	// touched entry plus a created keep.
	half := len(w.idx) + 1
	buf := w.entBuf(2 * half)
	lo, hi = buf[:0:half], buf[half:half]
	protect := keep >= split
	kept := Ent{keep, fill}
	filled = true
	for _, j := range w.idx {
		v, marked := w.val[j], w.state[j]&live != 0
		w.val[j], w.state[j] = 0, 0
		switch {
		case !marked:
		case j == keep && protect:
			kept.Val, filled = v, false
		case math.Abs(v) < tol:
			if j < split {
				dLo++
			} else {
				dHiTol++
			}
		case j < split:
			lo = lo[:len(lo)+1]
			lo[len(lo)-1] = Ent{j, v}
		default:
			hi = hi[:len(hi)+1]
			hi[len(hi)-1] = Ent{j, v}
		}
	}
	w.idx = w.idx[:0]

	if mLo > 0 && len(lo) > mLo {
		SelectLargest(lo, mLo)
		dLo += len(lo) - mLo
		lo = lo[:mLo]
	}
	if mHi > 0 && len(hi) > mHi {
		SelectLargest(hi, mHi)
		dHiCut = len(hi) - mHi
		hi = hi[:mHi]
	}
	if !protect {
		for _, e := range lo {
			filled = filled && e.Col != keep
		}
	}
	switch {
	case protect:
		hi = hi[:len(hi)+1]
		hi[len(hi)-1] = kept
	case filled:
		lo = lo[:len(lo)+1]
		lo[len(lo)-1] = kept
	}
	SortEntsByCol(lo)
	SortEntsByCol(hi)
	return lo, hi, dLo, dHiTol, dHiCut, filled
}

// Ent is one entry of a sparse row: a column and its value.
type Ent struct {
	Col int
	Val float64
}

// entBuf returns the WorkRow's entry buffer at length n.
//
//pilut:hotpath
func (w *WorkRow) entBuf(n int) []Ent {
	if cap(w.ents) < n {
		w.ents = make([]Ent, n+n/2) //pilutlint:ok hotalloc entry buffer grows to peak row nnz once, then is reused across rows
	}
	return w.ents[:n]
}

// SelectLargest reorders e so that its first m entries are the m largest
// by magnitude, ties going to the smaller column: a quickselect, because
// the dropping rules need the set and not its order. Columns are distinct,
// so the order is total and the chosen set is the one a full sort would
// choose. It ends after at most len(e) partitions whatever the values
// compare like (a NaN compares as last against everything).
//
//pilut:hotpath
func SelectLargest(e []Ent, m int) {
	lo, hi := 0, len(e)-1
	for lo < hi && m > lo && m <= hi {
		// Lomuto partition of e[lo..hi] around its middle entry.
		mid := lo + (hi-lo)/2
		pv := e[mid]
		e[mid] = e[hi]
		pa := math.Abs(pv.Val)
		i := lo
		for j := lo; j < hi; j++ {
			if a := math.Abs(e[j].Val); a > pa || a == pa && e[j].Col < pv.Col {
				e[i], e[j] = e[j], e[i]
				i++
			}
		}
		e[hi] = e[i]
		e[i] = pv
		// e[lo:i] precede the pivot, now at i; e[i+1:hi+1] follow it.
		if i >= m {
			hi = i - 1
		} else {
			lo = i + 1
		}
	}
}

// SortEntsByCol sorts ascending by column (columns are distinct): an
// insertion sort below a cutoff the capped rows never exceed, quicksort
// partitions above it for the uncapped ones.
//
//pilut:hotpath
func SortEntsByCol(e []Ent) {
	for len(e) > 24 {
		// Hoare partition around the middle column; the smaller side
		// recurses, the larger is the next iteration.
		pc := e[len(e)/2].Col
		i, j := 0, len(e)-1
		for i <= j {
			for e[i].Col < pc {
				i++
			}
			for e[j].Col > pc {
				j--
			}
			if i <= j {
				e[i], e[j] = e[j], e[i]
				i++
				j--
			}
		}
		if j+1 < len(e)-i {
			SortEntsByCol(e[:j+1])
			e = e[i:]
		} else {
			SortEntsByCol(e[i:])
			e = e[:j+1]
		}
	}
	for i := 1; i < len(e); i++ {
		x := e[i]
		j := i - 1
		for j >= 0 && e[j].Col > x.Col {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = x
	}
}
