// Package dist provides the distributed matrix and vector kernels of the
// system: a row distribution (layout) of a square sparse matrix over the
// virtual machine's processors, ghost-value exchange, parallel
// matrix–vector products, and reduction-based inner products/norms — the
// building blocks the paper's iterative solver runs on.
package dist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/pcomm"
	"repro/internal/sparse"
)

// Layout is a row distribution of an n×n matrix: PartOf[i] is the owning
// processor of global row/unknown i, Rows[p] lists processor p's rows in
// increasing global order. Layouts are immutable after construction and
// safely shared by all processors.
type Layout struct {
	N      int
	P      int
	PartOf []int
	Rows   [][]int
	pos    []int // pos[i]: the position of row i in its owner's Rows
}

// NewLayout builds a layout from a part assignment (values in [0, P)).
func NewLayout(n, p int, partOf []int) (*Layout, error) {
	if len(partOf) != n {
		return nil, fmt.Errorf("dist: partOf has %d entries for %d rows", len(partOf), n)
	}
	l := &Layout{N: n, P: p, PartOf: append([]int(nil), partOf...), Rows: make([][]int, p), pos: make([]int, n)}
	for i, q := range partOf {
		if q < 0 || q >= p {
			return nil, fmt.Errorf("dist: row %d assigned to invalid processor %d", i, q)
		}
		l.pos[i] = len(l.Rows[q])
		l.Rows[q] = append(l.Rows[q], i)
	}
	return l, nil
}

// NLocal reports how many rows processor q owns.
func (l *Layout) NLocal(q int) int { return len(l.Rows[q]) }

// SizeBytes estimates the heap footprint of the layout for cache
// accounting: a cached symbolic artifact keeps its layout alive across
// value swaps, so the bytes must be charged somewhere.
func (l *Layout) SizeBytes() int64 {
	return 24 * int64(l.N) // PartOf, Rows and pos
}

// LocalIndex returns the local position of global row g on its owner, or
// −1 if q does not own g.
func (l *Layout) LocalIndex(q, g int) int {
	if g < 0 || g >= l.N || l.PartOf[g] != q {
		return -1
	}
	return l.pos[g]
}

// Scatter splits a global vector into per-processor local vectors.
func (l *Layout) Scatter(x []float64) [][]float64 {
	out := make([][]float64, l.P)
	for q := 0; q < l.P; q++ {
		out[q] = make([]float64, len(l.Rows[q]))
		for k, g := range l.Rows[q] {
			out[q][k] = x[g]
		}
	}
	return out
}

// Gather reassembles a global vector from per-processor local vectors.
func (l *Layout) Gather(parts [][]float64) []float64 {
	x := make([]float64, l.N)
	for q := 0; q < l.P; q++ {
		for k, g := range l.Rows[q] {
			x[g] = parts[q][k]
		}
	}
	return x
}

// Matrix is one processor's view of a distributed matrix: the global CSR
// is shared read-only and each processor touches only its own rows, plus a
// neighbour-exchange plan for the off-processor columns those rows
// reference.
type Matrix struct {
	Lay *Layout
	A   *sparse.CSR

	me int
	// halo fetches the ghosts, the columns of my rows other processors own,
	// by owner and increasing, a ghost's slot being its position in that
	// order. Immutable after NewMatrix and shared by clones.
	halo  *pcomm.Halo
	ghost [][]float64 // ghost values, one vector per vector of a product; grow-only, reused

	// Pre-resolved column references for the product loops, one int32 per
	// local nonzero: r ≥ 0 reads x[r] (owned), r < 0 reads ghost[^r]. One
	// flat array plus offsets replaces a layout-map and a ghost-map lookup
	// per nonzero per product — the dominant cost of a product once the
	// exchange is pooled.
	refFlat []int32
	refOff  []int
	nnz     int // A.NNZ() of the matrix the plan was built for
}

// Message tags used by this package.
const (
	tagGhost = 9201
)

// NewMatrix builds processor p's view of A under the layout, building the
// ghost exchange plan collectively (pcomm.BuildHalo). All processors must
// call it together.
func NewMatrix(p pcomm.Comm, lay *Layout, a *sparse.CSR) *Matrix {
	if a.N != lay.N || a.M != lay.N {
		panic("dist: matrix/layout size mismatch")
	}
	if lay.N >= 1<<31 {
		panic("dist: matrix too large for int32 column references")
	}
	me := p.ID()
	m := &Matrix{Lay: lay, A: a, me: me, halo: new(pcomm.Halo), nnz: a.NNZ()}
	rows := lay.Rows[me]
	slotOf := make(map[int]int32) // ghost id → slot; −1 until ordered
	need := make([][]int, lay.P)
	for _, g := range rows {
		cols, _ := a.Row(g)
		for _, j := range cols {
			if q := lay.PartOf[j]; q != me {
				if _, ok := slotOf[j]; !ok {
					slotOf[j] = -1
					need[q] = append(need[q], j)
				}
			}
		}
	}
	slots := make([]int32, 0, len(slotOf))
	for q, ids := range need {
		if len(ids) > 0 {
			sort.Ints(ids)
			lo := len(slots)
			for _, j := range ids {
				slotOf[j] = int32(len(slots))
				slots = append(slots, slotOf[j])
			}
			m.halo.In = append(m.halo.In, pcomm.Link{Peer: q, IDs: ids, Slots: slots[lo:len(slots):len(slots)]})
		}
	}
	m.ghost = [][]float64{make([]float64, len(slots))}

	m.refOff = make([]int, len(rows)+1)
	for k, g := range rows {
		m.refOff[k] = len(m.refFlat)
		cols, _ := a.Row(g)
		for _, j := range cols {
			if lay.PartOf[j] == me {
				m.refFlat = append(m.refFlat, int32(lay.LocalIndex(me, j)))
			} else {
				m.refFlat = append(m.refFlat, ^slotOf[j])
			}
		}
	}
	m.refOff[len(rows)] = len(m.refFlat)

	pcomm.BuildHalo(p, m.halo, 0, func(g int) int32 { return int32(lay.LocalIndex(me, g)) })
	return m
}

// NGhost reports the number of off-processor values each product fetches.
func (m *Matrix) NGhost() int {
	n := 0
	for _, l := range m.halo.In {
		n += len(l.IDs)
	}
	return n
}

// Halo returns the ghost exchange plan. It is shared and must not be
// modified.
func (m *Matrix) Halo() *pcomm.Halo { return m.halo }

// MulVec computes the local rows of y = A·x: MulVecBatch on a batch of
// one. x and y hold the owned values in Rows[p] order.
//
//pilut:hotpath
func (m *Matrix) MulVec(p pcomm.Comm, y, x []float64) {
	ys, xs := [1][]float64{y}, [1][]float64{x}
	m.MulVecBatch(p, ys[:], xs[:])
}

// MulVecBatch computes the local rows of ys[i] = A·xs[i] for a batch of
// vectors with a single ghost exchange: each neighbour receives one
// message carrying the values of every vector in the batch, so the
// per-message latency is paid once per neighbour instead of once per
// vector, and the per-vector arithmetic does not depend on the batch it
// rides in. Messages circulate through the pcomm.Floats pool, so a
// steady-state exchange touches the allocator not at all. The exchange and
// the 2·nnz flops per vector are charged to the virtual clock. The inner
// loop walks the pre-resolved refFlat references instead of chasing layout
// and ghost maps. Collective: every processor must call it with the same
// batch size.
//
//pilut:hotpath
func (m *Matrix) MulVecBatch(p pcomm.Comm, ys, xs [][]float64) {
	if len(ys) != len(xs) {
		panic("dist: MulVecBatch batch size mismatch")
	}
	B := len(xs)
	if B == 0 {
		return
	}
	rows := m.Lay.Rows[m.me]
	for i := range xs {
		if len(xs[i]) != len(rows) || len(ys[i]) != len(rows) {
			panic("dist: MulVecBatch local vector length mismatch")
		}
	}
	for len(m.ghost) < B {
		m.ghost = append(m.ghost, make([]float64, m.NGhost())) //pilutlint:ok hotalloc grow-only scratch owned by the matrix; steady-state batches reuse it
	}
	ghosts := m.ghost[:B]
	pcomm.Post(p, m.halo, tagGhost, xs)
	pcomm.Await(p, m.halo, tagGhost, ghosts)
	flops := 0
	for bi, x := range xs {
		y, ghost := ys[bi], ghosts[bi]
		for k, g := range rows {
			_, vals := m.A.Row(g)
			refs := m.refFlat[m.refOff[k]:m.refOff[k+1]]
			var s float64
			for idx, r := range refs {
				if r >= 0 {
					s += vals[idx] * x[r]
				} else {
					s += vals[idx] * ghost[^r]
				}
			}
			flops += 2 * len(refs)
			y[k] = s
		}
	}
	p.Work(float64(flops))
}

// CloneFor rebinds this processor's view to a matrix with the SAME
// sparsity pattern but different values, reusing the entire pattern-only
// exchange plan: the halo and the pre-resolved int32 column references
// are shared (they are immutable after setup), while the value buffers
// are fresh so clones never race. Unlike NewMatrix this performs no
// communication at all — it is safe to call serially, outside any machine
// run, which is exactly how the service's refactor-only path uses it.
//
// The caller is responsible for the pattern actually matching (the
// service guarantees it via sparse.PatternFingerprint keys); CloneFor
// checks dimensions and nonzero count as a cheap guard and returns an
// error on mismatch. The receiver may be a Template.
func (m *Matrix) CloneFor(a *sparse.CSR) (*Matrix, error) {
	if a.N != m.Lay.N || a.M != m.Lay.N {
		return nil, fmt.Errorf("dist: CloneFor matrix %dx%d does not match layout size %d", a.N, a.M, m.Lay.N)
	}
	if a.NNZ() != m.nnz {
		return nil, fmt.Errorf("dist: CloneFor matrix has %d entries, exchange plan was built for %d", a.NNZ(), m.nnz)
	}
	c := m.Template()
	c.A = a
	c.ghost = [][]float64{make([]float64, m.NGhost())}
	return c, nil
}

// Template returns the pattern-only half of this view: the shared halo,
// column references and nonzero count, without the matrix or the ghost
// value buffers. It serves only as a CloneFor receiver, and keeps no
// value array alive.
func (m *Matrix) Template() *Matrix {
	return &Matrix{Lay: m.Lay, me: m.me, halo: m.halo, refFlat: m.refFlat, refOff: m.refOff, nnz: m.nnz}
}

// SizeBytes estimates the in-memory footprint of this processor's ghost
// exchange plan, column references and buffers (the shared CSR is
// accounted separately).
func (m *Matrix) SizeBytes() int64 {
	n := 4*int64(len(m.refFlat)) + 8*int64(len(m.refOff))
	for _, g := range m.ghost {
		n += 8 * int64(len(g))
	}
	for _, l := range m.halo.In {
		n += 12 * int64(len(l.IDs))
	}
	for _, l := range m.halo.Out {
		n += 4 * int64(len(l.Slots))
	}
	return n
}

// Dot computes the global inner product of two distributed vectors.
func Dot(p pcomm.Comm, x, y []float64) float64 {
	if len(x) != len(y) {
		panic("dist: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	p.Work(float64(2 * len(x)))
	return p.AllReduceFloat64(s, pcomm.OpSum)
}

// Norm2 computes the global Euclidean norm of a distributed vector.
func Norm2(p pcomm.Comm, x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	p.Work(float64(2 * len(x)))
	total := p.AllReduceFloat64(s, pcomm.OpSum)
	if total < 0 {
		total = 0
	}
	return math.Sqrt(total)
}
