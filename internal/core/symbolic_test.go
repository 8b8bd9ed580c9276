package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

// TestAnalyzeBindMatchesNewPlan: the front end (Prepare), the explicit
// path on its layout (Analyze + Bind) and NewPlan build the same plan —
// every Symbolic field and the row norms — on the zoo at p ∈ {1, 2, 4, 8}.
func TestAnalyzeBindMatchesNewPlan(t *testing.T) {
	for _, mat := range oracleZoo() {
		for _, P := range oracleProcs {
			t.Run(fmt.Sprintf("%s/p%d", mat.name, P), func(t *testing.T) {
				a := mat.a
				prepared := mustPrepare(t, a, P, 17)
				sym, err := Analyze(a, prepared.Lay)
				if err != nil {
					t.Fatal(err)
				}
				bound, err := sym.Bind(a)
				if err != nil {
					t.Fatal(err)
				}
				oneShot, err := NewPlan(a, prepared.Lay)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					name string
					plan *Plan
				}{{"Analyze+Bind", bound}, {"NewPlan", oneShot}} {
					if !reflect.DeepEqual(*c.plan.Symbolic, *prepared.Symbolic) {
						t.Errorf("%s: Symbolic differs from Prepare's", c.name)
					}
					if !reflect.DeepEqual(c.plan.RowTau, prepared.RowTau) {
						t.Errorf("%s: row norms differ from Prepare's", c.name)
					}
				}
				if sym.PatternKey != sparse.PatternFingerprint(a) {
					t.Fatalf("PatternKey %s does not match PatternFingerprint %s", sym.PatternKey, sparse.PatternFingerprint(a))
				}
				if sym.SizeBytes() <= 0 {
					t.Fatal("symbolic artifact reports non-positive size")
				}
			})
		}
	}
}

// TestPrepareRejectsBadInput: fewer than one processor or a non-square
// matrix is an error, not a panic inside the partitioner.
func TestPrepareRejectsBadInput(t *testing.T) {
	if _, err := Prepare(matgen.Grid2D(4, 4), 0, 1); err == nil {
		t.Error("Prepare accepted p = 0")
	}
	if _, err := Prepare(&sparse.CSR{N: 2, M: 3, RowPtr: make([]int, 3)}, 2, 1); err == nil {
		t.Error("Prepare accepted a 2×3 matrix")
	}
}

func TestBindAcceptsSamePatternNewValues(t *testing.T) {
	a := matgen.Grid2D(10, 10)
	lay := mustPrepare(t, a, 4, 17).Lay
	sym, err := Analyze(a, lay)
	if err != nil {
		t.Fatal(err)
	}

	a2 := matgen.Evolve(a, 1, 1e-2, 3)[0]
	plan2, err := sym.Bind(a2)
	if err != nil {
		t.Fatalf("Bind rejected a same-pattern value swap: %v", err)
	}
	if plan2.Symbolic != sym {
		t.Fatal("bound plan does not share the symbolic artifact")
	}
	if plan2.A != a2 {
		t.Fatal("bound plan does not reference the new value set")
	}
	// RowTau must come from the NEW values: the threshold rule is relative
	// to the current matrix's row norms, not the analyzed one's.
	want, err := NewPlan(a2, lay)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan2.RowTau, want.RowTau) {
		t.Fatal("Bind row norms differ from a fresh NewPlan on the same values")
	}
}

func TestBindRejectsPatternChange(t *testing.T) {
	a := matgen.Grid2D(8, 8)
	lay := mustPrepare(t, a, 2, 17).Lay
	sym, err := Analyze(a, lay)
	if err != nil {
		t.Fatal(err)
	}

	// Different nonzero count.
	b := sparse.NewBuilder(a.N, a.M)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			b.Add(i, j, vals[k])
		}
	}
	b.Add(0, a.N-1, 0.5)
	if _, err := sym.Bind(b.Build()); err == nil {
		t.Fatal("Bind accepted a matrix with an extra entry")
	}

	// Same nonzero count, moved entry.
	c := a.Clone()
	// Move row 0's last entry to a different column by rebuilding.
	cb := sparse.NewBuilder(a.N, a.M)
	for i := 0; i < c.N; i++ {
		cols, vals := c.Row(i)
		for k, j := range cols {
			if i == 0 && k == len(cols)-1 {
				j = a.N - 1
			}
			cb.Add(i, j, vals[k])
		}
	}
	if _, err := sym.Bind(cb.Build()); err == nil {
		t.Fatal("Bind accepted a matrix with a moved entry")
	}

	// Wrong dimensions.
	if _, err := sym.Bind(matgen.Grid2D(4, 4)); err == nil {
		t.Fatal("Bind accepted a matrix of the wrong size")
	}
}

// TestRefactorBitwiseIdenticalToFactor is the heart of the symbolic/
// numeric split: factoring new values through a REUSED analysis must
// produce bit-for-bit the factors a from-scratch Factor produces — L/U
// rows, diagonal, level schedule, stats, everything in the wire form.
func TestRefactorBitwiseIdenticalToFactor(t *testing.T) {
	base := matgen.Grid2D(12, 12)
	steps := matgen.Evolve(base, 3, 2e-2, 11)
	opt := Options{Params: ilu.Params{M: 8, Tau: 1e-4, K: 2}, Seed: 7}

	for _, P := range []int{2, 4} {
		lay := mustPrepare(t, base, P, 17).Lay
		sym, err := Analyze(base, lay)
		if err != nil {
			t.Fatal(err)
		}
		for si, a := range steps {
			rebound, err := sym.Bind(a)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewPlan(a, lay)
			if err != nil {
				t.Fatal(err)
			}

			reWires := make([]WirePrecond, P)
			m := pcommtest.New(t, P, machine.T3D())
			m.Run(func(p pcomm.Comm) {
				reWires[p.ID()] = Refactor(p, rebound, opt).Wire()
			})
			coldWires := make([]WirePrecond, P)
			m2 := pcommtest.New(t, P, machine.T3D())
			m2.Run(func(p pcomm.Comm) {
				coldWires[p.ID()] = Factor(p, fresh, opt).Wire()
			})

			for q := 0; q < P; q++ {
				// Per-phase seconds are virtual (deterministic) on the
				// modelled machine but wall-clock on the real backend;
				// the bitwise contract covers everything else.
				reWires[q].Stats.Phase1InteriorSeconds = 0
				reWires[q].Stats.Phase1InterfaceSeconds = 0
				reWires[q].Stats.Phase2Seconds = 0
				coldWires[q].Stats.Phase1InteriorSeconds = 0
				coldWires[q].Stats.Phase1InterfaceSeconds = 0
				coldWires[q].Stats.Phase2Seconds = 0
				if !reflect.DeepEqual(reWires[q], coldWires[q]) {
					t.Fatalf("P=%d step %d proc %d: Refactor on reused symbolic differs from one-shot Factor", P, si, q)
				}
			}
		}
	}
}
