// Package sparse provides the sparse-matrix kernel underlying the parallel
// ILUT factorization: compressed sparse row (CSR) matrices, triplet
// assembly, permutation, transposition, dense conversion for small-scale
// verification, and the full-length working-row
// accumulator used by threshold-based incomplete factorizations.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format. Row i occupies
// Cols[RowPtr[i]:RowPtr[i+1]] and Vals[RowPtr[i]:RowPtr[i+1]]. Column
// indices within a row are kept sorted in increasing order by every
// constructor and transformation in this package.
type CSR struct {
	N      int // number of rows
	M      int // number of columns
	RowPtr []int
	Cols   []int
	Vals   []float64
}

// NewCSR returns an N×M matrix with no stored entries.
func NewCSR(n, m int) *CSR {
	return &CSR{N: n, M: m, RowPtr: make([]int, n+1)}
}

// NNZ reports the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Cols) }

// Dims reports the matrix dimensions (rows, columns).
func (a *CSR) Dims() (int, int) { return a.N, a.M }

// SizeBytes reports the in-memory footprint of the stored arrays (8 bytes
// per row pointer, column index and value). Cache byte budgets are
// accounted with it.
func (a *CSR) SizeBytes() int64 {
	return 8 * int64(len(a.RowPtr)+len(a.Cols)+len(a.Vals))
}

// Row returns the column-index and value slices of row i. The slices alias
// the matrix storage; callers must not grow them.
func (a *CSR) Row(i int) ([]int, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.Cols[lo:hi], a.Vals[lo:hi]
}

// RowNNZ reports the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// At returns the value at (i, j), or 0 if the entry is not stored. Row
// entries are sorted, so the lookup is a binary search.
func (a *CSR) At(i, j int) float64 {
	cols, vals := a.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		N:      a.N,
		M:      a.M,
		RowPtr: append([]int(nil), a.RowPtr...),
		Cols:   append([]int(nil), a.Cols...),
		Vals:   append([]float64(nil), a.Vals...),
	}
	return b
}

// MulVec computes y = A·x. It panics if the dimensions disagree.
func (a *CSR) MulVec(y, x []float64) {
	if len(x) != a.M || len(y) != a.N {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: A is %d×%d, x %d, y %d", a.N, a.M, len(x), len(y)))
	}
	for i := 0; i < a.N; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Vals[k] * x[a.Cols[k]]
		}
		y[i] = s
	}
}

// MulVecT computes y = Aᵀ·x.
func (a *CSR) MulVecT(y, x []float64) {
	if len(x) != a.N || len(y) != a.M {
		panic(fmt.Sprintf("sparse: MulVecT dimension mismatch: A is %d×%d, x %d, y %d", a.N, a.M, len(x), len(y)))
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < a.N; i++ {
		xi := x[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			y[a.Cols[k]] += a.Vals[k] * xi
		}
	}
}

// Transpose returns Aᵀ with sorted rows.
func (a *CSR) Transpose() *CSR {
	t := &CSR{N: a.M, M: a.N}
	t.RowPtr = make([]int, a.M+1)
	for _, j := range a.Cols {
		t.RowPtr[j+1]++
	}
	for j := 0; j < a.M; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	t.Cols = make([]int, a.NNZ())
	t.Vals = make([]float64, a.NNZ())
	next := append([]int(nil), t.RowPtr[:a.M]...)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Cols[k]
			p := next[j]
			next[j]++
			t.Cols[p] = i
			t.Vals[p] = a.Vals[k]
		}
	}
	// Rows of the transpose come out sorted because rows of A are scanned
	// in increasing i.
	return t
}

// Permute returns P·A·Pᵀ where perm maps old index → new index, i.e.
// entry (i, j) of A lands at (perm[i], perm[j]).
func (a *CSR) Permute(perm []int) *CSR {
	if a.N != a.M {
		panic("sparse: Permute requires a square matrix")
	}
	if len(perm) != a.N {
		panic("sparse: Permute: permutation length mismatch")
	}
	inv := InversePermutation(perm)
	p := &CSR{N: a.N, M: a.M}
	p.RowPtr = make([]int, a.N+1)
	for newI := 0; newI < a.N; newI++ {
		oldI := inv[newI]
		p.RowPtr[newI+1] = p.RowPtr[newI] + a.RowNNZ(oldI)
	}
	p.Cols = make([]int, a.NNZ())
	p.Vals = make([]float64, a.NNZ())
	for newI := 0; newI < a.N; newI++ {
		oldI := inv[newI]
		lo := p.RowPtr[newI]
		cols, vals := a.Row(oldI)
		for k, j := range cols {
			p.Cols[lo+k] = perm[j]
			p.Vals[lo+k] = vals[k]
		}
		SortRow(p.Cols[lo:p.RowPtr[newI+1]], p.Vals[lo:p.RowPtr[newI+1]])
	}
	return p
}

// PermuteRows returns the matrix whose row perm[i] is row i of A; columns
// are untouched. Used to renumber equations without renumbering unknowns.
func (a *CSR) PermuteRows(perm []int) *CSR {
	if len(perm) != a.N {
		panic("sparse: PermuteRows: permutation length mismatch")
	}
	inv := InversePermutation(perm)
	p := &CSR{N: a.N, M: a.M}
	p.RowPtr = make([]int, a.N+1)
	for newI := 0; newI < a.N; newI++ {
		p.RowPtr[newI+1] = p.RowPtr[newI] + a.RowNNZ(inv[newI])
	}
	p.Cols = make([]int, a.NNZ())
	p.Vals = make([]float64, a.NNZ())
	for newI := 0; newI < a.N; newI++ {
		oldI := inv[newI]
		lo := p.RowPtr[newI]
		cols, vals := a.Row(oldI)
		copy(p.Cols[lo:], cols)
		copy(p.Vals[lo:], vals)
	}
	return p
}

// Dense returns the matrix as a dense row-major n×m slice-of-slices. Only
// intended for small-scale verification in tests.
func (a *CSR) Dense() [][]float64 {
	d := make([][]float64, a.N)
	for i := range d {
		d[i] = make([]float64, a.M)
		cols, vals := a.Row(i)
		for k, j := range cols {
			d[i][j] = vals[k]
		}
	}
	return d
}

// Diagonal returns a copy of the main diagonal (missing entries are 0).
func (a *CSR) Diagonal() []float64 {
	n := a.N
	if a.M < n {
		n = a.M
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
	}
	return d
}

// RowNorm1 returns the 1-norm of row i (sum of absolute values of the
// stored entries). ILUT's relative drop tolerance is t times this norm.
func (a *CSR) RowNorm1(i int) float64 {
	_, vals := a.Row(i)
	var s float64
	for _, v := range vals {
		s += math.Abs(v)
	}
	return s
}

// RowNorm2 returns the 2-norm of row i.
func (a *CSR) RowNorm2(i int) float64 {
	_, vals := a.Row(i)
	var s float64
	for _, v := range vals {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether a and b have identical dimensions, structure and
// values (exact comparison).
func (a *CSR) Equal(b *CSR) bool {
	if a.N != b.N || a.M != b.M || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Cols {
		if a.Cols[k] != b.Cols[k] || a.Vals[k] != b.Vals[k] {
			return false
		}
	}
	return true
}

// Check reports whether a is a well-formed CSR matrix: the invariants
// every routine in this package assumes without testing. A matrix decoded
// from bytes another process wrote must pass it before anything indexes
// through RowPtr or Cols. The first violation found is returned.
func (a *CSR) Check() error {
	if a.N < 0 || a.M < 0 {
		return fmt.Errorf("sparse: negative dimensions %d×%d", a.N, a.M)
	}
	if len(a.RowPtr) != a.N+1 || a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr must hold %d offsets starting at 0", a.N+1)
	}
	if len(a.Cols) != len(a.Vals) || a.RowPtr[a.N] != len(a.Cols) {
		return fmt.Errorf("sparse: RowPtr ends at %d for %d columns and %d values", a.RowPtr[a.N], len(a.Cols), len(a.Vals))
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if lo > hi || hi > len(a.Cols) {
			return fmt.Errorf("sparse: row %d spans [%d,%d) of %d entries", i, lo, hi, len(a.Cols))
		}
		for k := lo; k < hi; k++ {
			if j := a.Cols[k]; j < 0 || j >= a.M || (k > lo && j <= a.Cols[k-1]) {
				return fmt.Errorf("sparse: row %d: column %d out of range [0,%d) or not strictly increasing", i, j, a.M)
			}
			if v := a.Vals[k]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sparse: row %d: non-finite value at column %d", i, a.Cols[k])
			}
		}
	}
	return nil
}

// MaxAbsDiff returns max_{ij} |a_ij − b_ij| over the union of both
// patterns. Matrices must have equal dimensions.
func MaxAbsDiff(a, b *CSR) float64 {
	if a.N != b.N || a.M != b.M {
		panic("sparse: MaxAbsDiff dimension mismatch")
	}
	var d float64
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if v := math.Abs(vals[k] - b.At(i, j)); v > d {
				d = v
			}
		}
		bcols, bvals := b.Row(i)
		for k, j := range bcols {
			if a.At(i, j) == 0 {
				if v := math.Abs(bvals[k]); v > d {
					d = v
				}
			}
		}
	}
	return d
}

// InversePermutation returns the inverse of perm: inv[perm[i]] = i.
// It panics if perm is not a permutation of 0..len(perm)-1.
func InversePermutation(perm []int) []int {
	inv := make([]int, len(perm))
	for i := range inv {
		inv[i] = -1
	}
	for i, p := range perm {
		if p < 0 || p >= len(perm) || inv[p] != -1 {
			panic(fmt.Sprintf("sparse: invalid permutation: element %d maps to %d", i, p))
		}
		inv[p] = i
	}
	return inv
}

// IdentityPermutation returns the permutation 0,1,…,n−1.
func IdentityPermutation(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// SortRow sorts a (cols, vals) pair by column index, permuting vals
// alongside. Rows are short, so a simple insertion sort avoids
// allocation.
func SortRow(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}
