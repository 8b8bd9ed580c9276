package ilu

import (
	"math"

	"repro/internal/sparse"
)

// Scratch bundles every piece of reusable working memory the row kernels
// need, so the steady-state factorization loop allocates zero bytes per
// row: the dense working row of Algorithm 1, the pivot queue of the
// sequential kernels, gather staging buffers, the pivot-row selection
// buffer, and an output arena the factored rows are carved from.
//
// Ownership rules (DESIGN.md §13):
//
//   - The volatile parts (working row, queue, staging buffers) hold no
//     live data between kernel calls and may be reused across
//     factorizations — core pools them per processor.
//   - The output arena (out) owns the memory of every row a kernel
//     returned. It must live as long as those rows do, so a pooled
//     Scratch detaches it before reuse (DetachOutputs) and the carved
//     rows keep their chunks alive through ordinary GC liveness.
//
// A zero Scratch is not usable; call NewScratch. The row kernels
// (EliminateRow, EliminateRowSeq, FactorInteriorRow, EliminateRowStatic,
// FactorPivotRow) are its methods and the only way to run them.
type Scratch struct {
	w *sparse.WorkRow
	q colQueue // pivot queue of the sequential sweep, over the working row's positions; empty between rows

	// gather staging: factored part (lc/lv) and reduced part (rc/rv) of
	// the current row, reused across rows.
	lc []int
	lv []float64
	rc []int
	rv []float64

	// pivot-row selection buffer of FactorPivotRow.
	ents []sparse.Ent

	// out is the output arena.
	out slab
}

// NewScratch returns a Scratch whose working row covers n positions.
func NewScratch(n int) *Scratch {
	s := &Scratch{w: sparse.NewWorkRow(n)}
	s.q.resize(n)
	return s
}

// Grow ensures the working row and the pivot queue cover at least n
// positions. The scratch must hold no live state (kernels always leave it
// reset).
func (s *Scratch) Grow(n int) {
	s.w.Resize(n)
	s.q.resize(n)
}

// W exposes the working row (the poison tests plant live state in it).
func (s *Scratch) W() *sparse.WorkRow { return s.w }

// DetachOutputs releases the output arena to its carved rows: the
// scratch forgets the chunks, the rows keep them alive, and the next
// factorization starts a fresh arena. Must be called before a Scratch is
// reused for a new factorization whose predecessor's rows are still
// live.
func (s *Scratch) DetachOutputs() { s.out = slab{} }

// Sanitize resets every volatile part, so a Scratch recovered from a
// panicking factorization is safe to reuse. Idempotent and cheap (the
// working-row reset is O(nnz of the interrupted row)).
func (s *Scratch) Sanitize() {
	s.w.Reset()
	s.q.clear()
	s.lc, s.lv = s.lc[:0], s.lv[:0]
	s.rc, s.rv = s.rc[:0], s.rv[:0]
	s.ents = s.ents[:0]
}

// Poison verifies the volatile state is clean — working row reset, pivot
// queue empty — and then overwrites every byte a correct kernel may not
// read — spare capacities of the staging buffers and the selection
// buffer, and the unused tail of the output arena — with NaN/sentinel
// garbage. A kernel that reads stale scratch state after a Poison produces
// NaNs or absurd indices, which the bitwise run-to-run property tests
// catch. Panics if live state is found.
func (s *Scratch) Poison() {
	s.w.PoisonClean()
	s.q.checkEmpty()
	const sentinel = -0x5A5A5A5A
	nan := math.NaN()
	ic := s.lc[:cap(s.lc)]
	for k := range ic {
		ic[k] = sentinel
	}
	ic = s.rc[:cap(s.rc)]
	for k := range ic {
		ic[k] = sentinel
	}
	fv := s.lv[:cap(s.lv)]
	for k := range fv {
		fv[k] = nan
	}
	fv = s.rv[:cap(s.rv)]
	for k := range fv {
		fv[k] = nan
	}
	s.lc, s.lv, s.rc, s.rv = s.lc[:0], s.lv[:0], s.rc[:0], s.rv[:0]
	ee := s.ents[:cap(s.ents)]
	for k := range ee {
		ee[k] = sparse.Ent{Col: sentinel, Val: nan}
	}
	s.ents = s.ents[:0]
	s.out.poisonTail(nan, sentinel)
}

// slab is a chunked output arena: rows are carved from large chunks so
// the per-row cost is a copy, not an allocation. Carved slices are
// capped (three-index) so a stray append copies out instead of
// clobbering a neighbour. There is no free: rows live until the arena
// and every carved row are unreachable together.
type slab struct {
	ints   []int
	floats []float64
}

// slabChunk is the default chunk size in elements. Large enough that
// chunk allocation is far off the per-row path, small enough not to
// strand memory on tiny factorizations.
const slabChunk = 4096

// carveInts returns an uninitialized length-n int slice from the arena.
//
//pilut:hotpath
func (s *slab) carveInts(n int) []int {
	if cap(s.ints)-len(s.ints) < n {
		c := slabChunk
		if n > c {
			c = n
		}
		s.ints = make([]int, 0, c) //pilutlint:ok hotalloc amortized chunk refill; per-row carves are slice arithmetic
	}
	off := len(s.ints)
	s.ints = s.ints[:off+n]
	return s.ints[off : off+n : off+n]
}

// carveFloats returns an uninitialized length-n float64 slice.
//
//pilut:hotpath
func (s *slab) carveFloats(n int) []float64 {
	if cap(s.floats)-len(s.floats) < n {
		c := slabChunk
		if n > c {
			c = n
		}
		s.floats = make([]float64, 0, c) //pilutlint:ok hotalloc amortized chunk refill; per-row carves are slice arithmetic
	}
	off := len(s.floats)
	s.floats = s.floats[:off+n]
	return s.floats[off : off+n : off+n]
}

// poisonTail scribbles over the unused remainder of the current chunks.
func (s *slab) poisonTail(nan float64, sentinel int) {
	tail := s.ints[len(s.ints):cap(s.ints)]
	for k := range tail {
		tail[k] = sentinel
	}
	ftail := s.floats[len(s.floats):cap(s.floats)]
	for k := range ftail {
		ftail[k] = nan
	}
}

// discardAll resets the used counters, reusing the chunks in place.
// Only valid when every row ever carved from the arena is dead — the
// alloc-regression guards use it to run a kernel in a loop without
// growing the arena.
func (s *slab) discardAll() {
	s.ints = s.ints[:0]
	s.floats = s.floats[:0]
}

// takeInts stores a gathered row: nil for an empty row (matching
// Gather-into-nil), an arena carve otherwise.
//
//pilut:hotpath
func (s *Scratch) takeInts(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	out := s.out.carveInts(len(src))
	copy(out, src)
	return out
}

//pilut:hotpath
func (s *Scratch) takeFloats(src []float64) []float64 {
	if len(src) == 0 {
		return nil
	}
	out := s.out.carveFloats(len(src))
	copy(out, src)
	return out
}

// carveEnts stores a row of entries as an arena-carved (cols, vals) pair.
//
//pilut:hotpath
func (s *Scratch) carveEnts(ents []sparse.Ent) ([]int, []float64) {
	cols := s.out.carveInts(len(ents))
	vals := s.out.carveFloats(len(ents))
	for k, e := range ents {
		cols[k] = e.Col
		vals[k] = e.Val
	}
	return cols, vals
}
