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
	local  []map[int]int // per proc: global id → position in Rows[p]
}

// NewLayout builds a layout from a part assignment (values in [0, P)).
func NewLayout(n, p int, partOf []int) (*Layout, error) {
	if len(partOf) != n {
		return nil, fmt.Errorf("dist: partOf has %d entries for %d rows", len(partOf), n)
	}
	l := &Layout{N: n, P: p, PartOf: append([]int(nil), partOf...)}
	l.Rows = make([][]int, p)
	for i, q := range partOf {
		if q < 0 || q >= p {
			return nil, fmt.Errorf("dist: row %d assigned to invalid processor %d", i, q)
		}
		l.Rows[q] = append(l.Rows[q], i)
	}
	l.local = make([]map[int]int, p)
	for q := 0; q < p; q++ {
		l.local[q] = make(map[int]int, len(l.Rows[q]))
		for k, g := range l.Rows[q] {
			l.local[q][g] = k
		}
	}
	return l, nil
}

// NLocal reports how many rows processor q owns.
func (l *Layout) NLocal(q int) int { return len(l.Rows[q]) }

// SizeBytes estimates the heap footprint of the layout for cache
// accounting: a cached symbolic artifact keeps its layout alive across
// value swaps, so the bytes must be charged somewhere.
func (l *Layout) SizeBytes() int64 {
	b := 8 * int64(len(l.PartOf))
	for q := range l.Rows {
		b += 8 * int64(len(l.Rows[q]))
		b += 16 * int64(len(l.local[q]))
	}
	return b
}

// LocalIndex returns the local position of global row g on its owner, or
// −1 if q does not own g.
func (l *Layout) LocalIndex(q, g int) int {
	if idx, ok := l.local[q][g]; ok {
		return idx
	}
	return -1
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
// ghost-exchange plan for the off-processor columns those rows reference.
type Matrix struct {
	Lay *Layout
	A   *sparse.CSR

	me        int
	ghostIDs  []int       // remote global columns, grouped by owner
	ghostSlot map[int]int // global id → index into ghost arrays (setup only)
	recvFrom  [][]int     // per proc: count prefix into ghostIDs (via ranges)
	sendTo    [][]int     // per proc: local indices of owned values to ship
	ghost     []float64   // ghost values of every vector of a product, grow-only, reused

	// Pre-resolved column references for the product loops, one int32 per
	// local nonzero: r ≥ 0 reads x[r] (owned), r < 0 reads ghost[^r]. One
	// flat array plus offsets replaces a layout-map and a ghost-map lookup
	// per nonzero per product — the dominant cost of a product once the
	// exchange is pooled.
	refFlat []int32
	refOff  []int
}

// Message tags used by this package.
const (
	tagGhost = 9201
)

// NewMatrix builds processor p's view of A under the layout, performing
// the collective setup exchange that tells every owner which values its
// neighbours need. All processors must call it together.
func NewMatrix(p pcomm.Comm, lay *Layout, a *sparse.CSR) *Matrix {
	if a.N != lay.N || a.M != lay.N {
		panic("dist: matrix/layout size mismatch")
	}
	m := &Matrix{Lay: lay, A: a, me: p.ID(), ghostSlot: make(map[int]int)}
	P := lay.P
	need := make([][]int, P)
	for _, g := range lay.Rows[p.ID()] {
		cols, _ := a.Row(g)
		for _, j := range cols {
			q := lay.PartOf[j]
			if q == p.ID() {
				continue
			}
			if _, ok := m.ghostSlot[j]; !ok {
				m.ghostSlot[j] = -1 // placeholder; slotted below
				need[q] = append(need[q], j)
			}
		}
	}
	for q := range need {
		sort.Ints(need[q])
	}
	for q := 0; q < P; q++ {
		for _, j := range need[q] {
			m.ghostSlot[j] = len(m.ghostIDs)
			m.ghostIDs = append(m.ghostIDs, j)
		}
	}
	m.recvFrom = need
	m.ghost = make([]float64, len(m.ghostIDs))
	if lay.N >= 1<<31 {
		panic("dist: matrix too large for int32 column references")
	}
	rows := lay.Rows[p.ID()]
	m.refOff = make([]int, len(rows)+1)
	for k, g := range rows {
		m.refOff[k] = len(m.refFlat)
		cols, _ := a.Row(g)
		for _, j := range cols {
			if lay.PartOf[j] == p.ID() {
				m.refFlat = append(m.refFlat, int32(lay.LocalIndex(p.ID(), j)))
			} else {
				m.refFlat = append(m.refFlat, int32(^m.ghostSlot[j]))
			}
		}
	}
	m.refOff[len(rows)] = len(m.refFlat)

	// Exchange request lists so owners learn what to send.
	var flat []int
	for q := 0; q < P; q++ {
		if len(need[q]) == 0 {
			continue
		}
		flat = append(flat, q, len(need[q]))
		flat = append(flat, need[q]...)
	}
	all := pcomm.AllGatherInts(p, flat)
	m.sendTo = make([][]int, P)
	pairs := 0 // (reader, owner) pairs in the world: one message each per exchange
	for src := 0; src < P; src++ {
		f := all[src]
		for i := 0; i < len(f); {
			dst, cnt := f[i], f[i+1]
			ids := f[i+2 : i+2+cnt]
			i += 2 + cnt
			pairs++
			if dst != p.ID() {
				continue
			}
			for _, g := range ids {
				li := lay.LocalIndex(p.ID(), g)
				if li < 0 {
					panic("dist: neighbour requested a row we do not own")
				}
				m.sendTo[src] = append(m.sendTo[src], li)
			}
		}
	}
	// A rank may be an exchange ahead of its slowest neighbour; buffers
	// past the pool's cap would be dropped and allocated again each round.
	pcomm.Floats.Reserve(2 * pairs)
	return m
}

// NGhost reports the number of off-processor values each product fetches.
func (m *Matrix) NGhost() int { return len(m.ghostIDs) }

// exchangeGhosts ships the owned values of every vector in xs to the
// neighbours and fills m.ghost — len(xs) consecutive blocks of NGhost
// values, one per vector — from theirs: one coalesced message per
// neighbour per round, whatever the batch size. Send buffers come from
// the shared pcomm.Floats pool and the receiver recycles them, so a
// steady-state exchange touches the allocator not at all.
//
//pilut:hotpath
func (m *Matrix) exchangeGhosts(p pcomm.Comm, xs [][]float64) {
	P, B, ng := m.Lay.P, len(xs), len(m.ghostIDs)
	for q := 0; q < P; q++ {
		if q == m.me || len(m.sendTo[q]) == 0 {
			continue
		}
		msg := pcomm.Floats.Get(B * len(m.sendTo[q]))
		off := 0
		for _, x := range xs {
			for _, li := range m.sendTo[q] {
				msg[off] = x[li]
				off++
			}
		}
		pcomm.SendSlice(p, q, tagGhost, msg)
	}
	pos := 0
	for q := 0; q < P; q++ {
		if q == m.me || len(m.recvFrom[q]) == 0 {
			continue
		}
		cnt := len(m.recvFrom[q])
		msg := pcomm.RecvSlice[float64](p, q, tagGhost)
		if len(msg) != B*cnt {
			panic("dist: ghost message length mismatch")
		}
		for bi := 0; bi < B; bi++ {
			copy(m.ghost[bi*ng+pos:bi*ng+pos+cnt], msg[bi*cnt:(bi+1)*cnt])
		}
		pcomm.Floats.Put(msg)
		pos += cnt
	}
}

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
// rides in. The exchange and the 2·nnz flops per vector are charged to
// the virtual clock. The inner loop walks the pre-resolved refFlat
// references instead of chasing layout and ghost maps. Collective: every
// processor must call it with the same batch size.
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
	ng := len(m.ghostIDs)
	if len(m.ghost) < B*ng {
		m.ghost = make([]float64, B*ng) //pilutlint:ok hotalloc grow-only scratch owned by the matrix; steady-state batches reuse it
	}
	m.exchangeGhosts(p, xs)
	flops := 0
	for bi, x := range xs {
		y := ys[bi]
		ghost := m.ghost[bi*ng : (bi+1)*ng]
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
// exchange plan: ghost ids, send/receive lists and the pre-resolved
// int32 column references are shared (they are immutable after setup),
// while the value buffers are fresh so clones never race. Unlike
// NewMatrix this performs no communication at all — it is safe to call
// serially, outside any machine run, which is exactly how the service's
// refactor-only path uses it.
//
// The caller is responsible for the pattern actually matching (the
// service guarantees it via sparse.PatternFingerprint keys); CloneFor
// checks dimensions and nonzero count as a cheap guard and returns an
// error on mismatch.
func (m *Matrix) CloneFor(a *sparse.CSR) (*Matrix, error) {
	if a.N != m.Lay.N || a.M != m.Lay.N {
		return nil, fmt.Errorf("dist: CloneFor matrix %dx%d does not match layout size %d", a.N, a.M, m.Lay.N)
	}
	if a.NNZ() != m.A.NNZ() {
		return nil, fmt.Errorf("dist: CloneFor matrix has %d entries, exchange plan was built for %d", a.NNZ(), m.A.NNZ())
	}
	return &Matrix{
		Lay:       m.Lay,
		A:         a,
		me:        m.me,
		ghostIDs:  m.ghostIDs,
		ghostSlot: m.ghostSlot,
		recvFrom:  m.recvFrom,
		sendTo:    m.sendTo,
		ghost:     make([]float64, len(m.ghostIDs)),
		refFlat:   m.refFlat,
		refOff:    m.refOff,
	}, nil
}

// SizeBytes estimates the in-memory footprint of this processor's ghost
// exchange plan and buffers (the shared CSR is accounted separately).
func (m *Matrix) SizeBytes() int64 {
	n := 8 * int64(len(m.ghostIDs)+len(m.ghost)) // ids + value buffer
	n += 16 * int64(len(m.ghostSlot))
	for q := range m.sendTo {
		n += 8 * int64(len(m.sendTo[q])+len(m.recvFrom[q]))
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
