package core

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/pcomm/realcomm"
	"repro/internal/sparse"
)

// Scratch-poisoning property test at the factorization level (ISSUE 8):
// the per-processor scratch pool must be invisible. Every pooled scratch
// is scribbled with NaN/sentinel garbage between runs, and the factors
// must still come out bitwise identical — on the modelled backend and on
// real goroutines, where pool contention actually happens.

func poisonTestProblem(t *testing.T) (*sparse.CSR, *Plan, int) {
	t.Helper()
	const P = 4
	a := matgen.Grid2D(20, 20)
	g := graph.FromMatrix(a)
	part := partition.KWay(g, P, partition.Options{Seed: 17})
	lay, err := dist.NewLayout(a.N, P, part)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	return a, plan, P
}

func comparePrecs(t *testing.T, label string, base, got []*ProcPrecond) {
	t.Helper()
	for q := range base {
		b, g := base[q], got[q]
		if !reflect.DeepEqual(b.newOf, g.newOf) {
			t.Fatalf("%s: proc %d: elimination order differs", label, q)
		}
		if !reflect.DeepEqual(b.fwd, g.fwd) {
			t.Fatalf("%s: proc %d: L factor differs bitwise", label, q)
		}
		if !reflect.DeepEqual(b.bwd, g.bwd) {
			t.Fatalf("%s: proc %d: U factor differs bitwise", label, q)
		}
		if !reflect.DeepEqual(b.Stats.ILU, g.Stats.ILU) {
			t.Fatalf("%s: proc %d: ILU stats differ:\n%+v\n%+v", label, q, b.Stats.ILU, g.Stats.ILU)
		}
	}
}

// TestFactorPoisonedScratchPoolBitwise factors the same matrix repeatedly
// with poisoned pooled scratches in between, across both in-process
// backends, and demands bitwise-identical factors every time.
func TestFactorPoisonedScratchPoolBitwise(t *testing.T) {
	_, plan, P := poisonTestProblem(t)
	opt := Options{Params: ilu.Params{M: 6, Tau: 1e-4, K: 2}, Seed: 3}

	factorModelled := func() []*ProcPrecond {
		pcs := make([]*ProcPrecond, P)
		m := modelled.New(P, machine.T3D())
		m.Run(func(p pcomm.Comm) {
			pcs[p.ID()] = Factor(p, plan, opt)
		})
		return pcs
	}
	factorReal := func() []*ProcPrecond {
		pcs := make([]*ProcPrecond, P)
		w := realcomm.New(P)
		w.Run(func(p pcomm.Comm) {
			pcs[p.ID()] = Factor(p, plan, opt)
		})
		return pcs
	}

	base := factorModelled()
	for pass := 0; pass < 2; pass++ {
		PoisonPooledScratches()
		comparePrecs(t, "modelled after poison", base, factorModelled())
		PoisonPooledScratches()
		comparePrecs(t, "realcomm after poison", base, factorReal())
	}
}

// TestFactorILU0PoisonedScratchPoolBitwise covers the static-pattern
// factorization's use of the same pool.
func TestFactorILU0PoisonedScratchPoolBitwise(t *testing.T) {
	_, plan, P := poisonTestProblem(t)

	factor := func() []*ProcPrecond {
		pcs := make([]*ProcPrecond, P)
		m := modelled.New(P, machine.T3D())
		m.Run(func(p pcomm.Comm) {
			pcs[p.ID()] = FactorILU0(p, plan, 0, 11)
		})
		return pcs
	}

	base := factor()
	PoisonPooledScratches()
	comparePrecs(t, "ILU(0) after poison", base, factor())
}
