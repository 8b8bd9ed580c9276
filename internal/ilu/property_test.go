package ilu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// Property: for random diagonally dominant matrices and random parameters,
// every ILUT factorization has valid triangular structure, finite values,
// and a solve that produces finite results.
func TestILUTAlwaysWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(40)
		a := matgen.RandomSPDPattern(n, 2+r.Intn(5), seed)
		p := Params{M: r.Intn(8), Tau: math.Pow(10, -float64(r.Intn(8)))}
		fac, _, err := ILUT(a, p)
		if err != nil {
			return false
		}
		if fac.CheckStructure() != nil {
			return false
		}
		for _, v := range fac.L.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		for _, v := range fac.U.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		x := make([]float64, n)
		fac.Solve(x, sparse.Ones(n))
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with no dropping, ILUT is exact for any diagonally dominant
// matrix (complete LU), regardless of sparsity.
func TestILUTNoDropExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		a := matgen.RandomSPDPattern(n, 2+r.Intn(4), seed)
		fac, _, err := ILUT(a, Params{M: 0, Tau: 0})
		if err != nil {
			return false
		}
		return sparse.MaxAbsDiff(fac.Product(), a) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the drop tolerance is monotone — a looser tolerance never
// yields more stored entries than a tighter one (same M).
func TestILUTTauMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(30)
		a := matgen.RandomSPDPattern(n, 4, seed)
		loose, _, err := ILUT(a, Params{M: 0, Tau: 1e-2})
		if err != nil {
			return false
		}
		tight, _, err := ILUT(a, Params{M: 0, Tau: 1e-8})
		if err != nil {
			return false
		}
		return loose.NNZ() <= tight.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
