package krylov

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// hessenberg is the dense half of one GMRES restart cycle, the only copy
// in the package: the serial and the distributed solvers differ in how
// they form inner products, not in what they do with them. A solver
// stores the Gram–Schmidt coefficients of step k in column k of h, calls
// rotate for the residual estimate, and at the end of the cycle calls
// solve for the coefficients of the update.
type hessenberg struct {
	h      [][]float64 // h[i][j], (m+1)×m; upper triangular once column j is rotated
	cs, sn []float64   // the Givens rotations applied so far
	g      []float64   // β·e₁ under those rotations
	y      []float64   // solve's result, reused across cycles
}

func newHessenberg(m int) *hessenberg {
	q := &hessenberg{
		h:  make([][]float64, m+1),
		cs: make([]float64, m),
		sn: make([]float64, m),
		g:  make([]float64, m+1),
		y:  make([]float64, m),
	}
	rows := make([]float64, (m+1)*m)
	for i := range q.h {
		q.h[i] = rows[i*m : (i+1)*m]
	}
	return q
}

// vectors returns count zeroed vectors of length n, each its own
// allocation: cut from one block, a Krylov basis is a large object the
// runtime hands back slowly, and a daemon solving in a loop carried 2 MiB
// more resident memory for it.
func vectors(count, n int) [][]float64 {
	vs := make([][]float64, count)
	for i := range vs {
		vs[i] = make([]float64, n)
	}
	return vs
}

// start opens a cycle whose initial residual has norm beta.
func (q *hessenberg) start(beta float64) {
	for i := range q.g {
		q.g[i] = 0
	}
	q.g[0] = beta
}

// orthogonalize is the serial solvers' modified Gram–Schmidt step: it
// orthogonalizes v[k+1] against v[0..k], stores column k and normalizes
// v[k+1]. It returns the norm before normalizing; zero is the lucky
// breakdown, the subspace is exhausted.
func (q *hessenberg) orthogonalize(v [][]float64, k int) float64 {
	w := v[k+1]
	for i := 0; i <= k; i++ {
		q.h[i][k] = sparse.Dot(w, v[i])
		sparse.Axpy(-q.h[i][k], v[i], w)
	}
	norm := sparse.Norm2(w)
	q.h[k+1][k] = norm
	if norm > 0 {
		sparse.Scale(1/norm, w)
	}
	return norm
}

// rotate finishes column k: the previous rotations are applied to it, a
// new one zeroes its subdiagonal entry, and g follows. It returns the
// norm of the residual after k+1 steps.
func (q *hessenberg) rotate(k int) float64 {
	h, cs, sn, g := q.h, q.cs, q.sn, q.g
	for i := 0; i < k; i++ {
		t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
		h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
		h[i][k] = t
	}
	cs[k], sn[k] = givens(h[k][k], h[k+1][k])
	h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
	h[k+1][k] = 0
	g[k+1] = -sn[k] * g[k]
	g[k] = cs[k] * g[k]
	return math.Abs(g[k+1])
}

// solve back-substitutes the k×k triangular system left by k steps and
// returns the coefficients of the update x += Σ y[j]·v[j]; the slice is
// valid until the next call.
func (q *hessenberg) solve(k int) ([]float64, error) {
	y := q.y[:k]
	for i := k - 1; i >= 0; i-- {
		s := q.g[i]
		for j := i + 1; j < k; j++ {
			s -= q.h[i][j] * y[j]
		}
		if q.h[i][i] == 0 {
			return nil, fmt.Errorf("krylov: GMRES Hessenberg breakdown at %d", i)
		}
		y[i] = s / q.h[i][i]
	}
	return y, nil
}

// givens returns (c, s) such that the rotation zeroes b against a.
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		c = s * t
		return c, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+t*t)
	s = c * t
	return c, s
}
