package sparse

import (
	"fmt"
	"sort"
)

// Builder assembles a CSR matrix from (row, col, value) triplets in any
// order. Duplicate entries are summed, matching finite-element assembly
// semantics.
type Builder struct {
	n, m int
	rows []int
	cols []int
	vals []float64
}

// NewBuilder returns a Builder for an n×m matrix.
func NewBuilder(n, m int) *Builder {
	return &Builder{n: n, m: m}
}

// Add records the triplet (i, j, v). Zero values are kept as explicit
// entries; use the resulting pattern deliberately.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.m {
		panic(fmt.Sprintf("sparse: Builder.Add index (%d,%d) out of range for %d×%d", i, j, b.n, b.m))
	}
	b.rows = append(b.rows, i)
	b.cols = append(b.cols, j)
	b.vals = append(b.vals, v)
}

// Len reports the number of recorded triplets (before duplicate collapse).
func (b *Builder) Len() int { return len(b.rows) }

// Build produces the CSR matrix: triplets bucketed by row, sorted by
// column, duplicates summed. The Builder may be reused afterwards; its
// triplet list is left intact.
func (b *Builder) Build() *CSR {
	count := make([]int, b.n+1)
	for _, i := range b.rows {
		count[i+1]++
	}
	for i := 0; i < b.n; i++ {
		count[i+1] += count[i]
	}
	order := make([]int, len(b.rows))
	next := append([]int(nil), count[:b.n]...)
	for k, i := range b.rows {
		order[next[i]] = k
		next[i]++
	}

	a := &CSR{N: b.n, M: b.m, RowPtr: make([]int, b.n+1)}
	a.Cols = make([]int, 0, len(b.rows))
	a.Vals = make([]float64, 0, len(b.rows))
	for i := 0; i < b.n; i++ {
		lo, hi := count[i], count[i+1]
		rowIdx := order[lo:hi]
		// A row that arrived with strictly increasing columns (a file
		// written row by row) is in the one order the sort could give it.
		increasing := true
		for k := 1; k < len(rowIdx) && increasing; k++ {
			increasing = b.cols[rowIdx[k-1]] < b.cols[rowIdx[k]]
		}
		if !increasing {
			sort.Slice(rowIdx, func(x, y int) bool { return b.cols[rowIdx[x]] < b.cols[rowIdx[y]] })
		}
		for k := 0; k < len(rowIdx); {
			j := b.cols[rowIdx[k]]
			var v float64
			for ; k < len(rowIdx) && b.cols[rowIdx[k]] == j; k++ {
				v += b.vals[rowIdx[k]]
			}
			a.Cols = append(a.Cols, j)
			a.Vals = append(a.Vals, v)
		}
		a.RowPtr[i+1] = len(a.Cols)
	}
	return a
}

// FromDense builds a CSR matrix from a dense slice-of-slices, storing only
// nonzero entries. Intended for tests and examples.
func FromDense(d [][]float64) *CSR {
	n := len(d)
	m := 0
	if n > 0 {
		m = len(d[0])
	}
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		if len(d[i]) != m {
			panic("sparse: FromDense: ragged rows")
		}
		for j := 0; j < m; j++ {
			if d[i][j] != 0 {
				b.Add(i, j, d[i][j])
			}
		}
	}
	return b.Build()
}

// FromRows builds a CSR matrix directly from per-row (cols, vals) pairs.
// Each row's columns must be strictly increasing; the function panics
// otherwise. This is the fast path used by the factorization code, which
// produces rows already sorted.
func FromRows(n, m int, cols [][]int, vals [][]float64) *CSR {
	if len(cols) != n || len(vals) != n {
		panic("sparse: FromRows: row count mismatch")
	}
	a := &CSR{N: n, M: m, RowPtr: make([]int, n+1)}
	nnz := 0
	for i := 0; i < n; i++ {
		if len(cols[i]) != len(vals[i]) {
			panic("sparse: FromRows: cols/vals length mismatch")
		}
		nnz += len(cols[i])
	}
	a.Cols = make([]int, 0, nnz)
	a.Vals = make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		prev := -1
		for k, j := range cols[i] {
			if j <= prev || j >= m {
				panic(fmt.Sprintf("sparse: FromRows: row %d columns not strictly increasing or out of range", i))
			}
			prev = j
			a.Cols = append(a.Cols, j)
			a.Vals = append(a.Vals, vals[i][k])
		}
		a.RowPtr[i+1] = len(a.Cols)
	}
	return a
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	a := &CSR{N: n, M: n, RowPtr: make([]int, n+1), Cols: make([]int, n), Vals: make([]float64, n)}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] = i + 1
		a.Cols[i] = i
		a.Vals[i] = 1
	}
	return a
}
