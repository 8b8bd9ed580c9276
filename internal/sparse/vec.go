package sparse

import "math"

// Dot returns the inner product xᵀy. It panics on length mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("sparse: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// NormInf returns the maximum-magnitude entry of x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y ← y + alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("sparse: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale computes x ← alpha·x in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Ones returns a length-n vector of ones; the paper's right-hand sides are
// b = A·e with e all ones.
func Ones(n int) []float64 {
	e := make([]float64, n)
	for i := range e {
		e[i] = 1
	}
	return e
}

// PermuteVec returns the vector y with y[perm[i]] = x[i].
func PermuteVec(x []float64, perm []int) []float64 {
	y := make([]float64, len(x))
	for i, p := range perm {
		y[p] = x[i]
	}
	return y
}
