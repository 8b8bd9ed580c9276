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
	"repro/internal/sparse"
	"repro/internal/trace"
)

// tracedCases are the factorizations the traced tests run: parallel
// ILUT* and the static-pattern ILU(0), both through the one driver.
// rowCap bounds the entries of a reduced row entering a level: the k·m
// cap plus the protected diagonal for ILUT*, the 5-point stencil's row
// for the static pattern.
var tracedCases = []struct {
	name   string
	rowCap int
	factor func(p pcomm.Comm, plan *Plan) *ProcPrecond
}{
	{"ilutstar", 2*6 + 1, func(p pcomm.Comm, plan *Plan) *ProcPrecond {
		return Factor(p, plan, Options{Params: ilu.Params{M: 6, Tau: 1e-4, K: 2}, Seed: 3})
	}},
	{"ilu0", 5, func(p pcomm.Comm, plan *Plan) *ProcPrecond {
		return FactorILU0(p, plan, 0, 3)
	}},
}

// runTracedFactor factors a on P processors with a recorder attached and
// returns the pieces plus the recorded event stream. It pins the modelled
// backend: the tests below assert virtual-clock properties (identical
// makespans, identical traced timestamps) that a wall-clock backend cannot
// provide. Cross-backend equivalence of factors and stats is covered by
// the pcomm backend-equivalence tests instead.
func runTracedFactor(t *testing.T, a *sparse.CSR, P int, factor func(pcomm.Comm, *Plan) *ProcPrecond) ([]*ProcPrecond, []trace.Event, pcomm.Result) {
	t.Helper()
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
	pcs := make([]*ProcPrecond, P)
	m := modelled.New(P, machine.T3D())
	rec := trace.NewRecorder(P)
	m.SetRecorder(rec)
	res := m.Run(func(p pcomm.Comm) {
		pcs[p.ID()] = factor(p, plan)
	})
	return pcs, rec.Events(), res
}

// TestFactorDeterministicTraced runs the same factorization twice and
// demands bitwise-identical factors, identical modelled times and an
// identical trace event sequence — virtual clocks included. The machine is
// simulated, so scheduling nondeterminism of the host must never leak into
// results (TestFactorDeterministic checks the gathered factors; this test
// additionally pins the per-processor storage and the observability layer).
func TestFactorDeterministicTraced(t *testing.T) {
	a := matgen.Grid2D(20, 20)
	const P = 4
	for _, tc := range tracedCases {
		t.Run(tc.name, func(t *testing.T) {
			pcs1, ev1, res1 := runTracedFactor(t, a, P, tc.factor)
			pcs2, ev2, res2 := runTracedFactor(t, a, P, tc.factor)

			if res1.Elapsed != res2.Elapsed {
				t.Fatalf("modelled makespan differs across identical runs: %v vs %v", res1.Elapsed, res2.Elapsed)
			}
			for q := 0; q < P; q++ {
				p1, p2 := pcs1[q], pcs2[q]
				if !reflect.DeepEqual(p1.newOf, p2.newOf) {
					t.Fatalf("proc %d: elimination order differs", q)
				}
				if !reflect.DeepEqual(p1.fwd, p2.fwd) {
					t.Fatalf("proc %d: L factor or its exchange plan differs bitwise", q)
				}
				if !reflect.DeepEqual(p1.bwd, p2.bwd) {
					t.Fatalf("proc %d: U factor or its exchange plan differs bitwise", q)
				}
				if !reflect.DeepEqual(p1.Stats, p2.Stats) {
					t.Fatalf("proc %d: stats differ:\n%+v\n%+v", q, p1.Stats, p2.Stats)
				}
			}

			if len(ev1) != len(ev2) {
				t.Fatalf("trace length differs: %d vs %d events", len(ev1), len(ev2))
			}
			for i := range ev1 {
				if !reflect.DeepEqual(ev1[i], ev2[i]) {
					t.Fatalf("trace event %d differs:\n%+v\n%+v", i, ev1[i], ev2[i])
				}
			}
			if len(ev1) == 0 {
				t.Fatal("traced factorization recorded no events")
			}
		})
	}
}

// TestFactorLevelStats checks the per-level records against their global
// invariants: equal level structure on every processor, level sizes
// matching the published LevelInfo and summing to the interface, local
// pivots summing to the level size, and reduced rows entering each level
// bounded by the case's row cap.
func TestFactorLevelStats(t *testing.T) {
	a := matgen.Grid2D(20, 20)
	const P = 4
	for _, tc := range tracedCases {
		t.Run(tc.name, func(t *testing.T) {
			pcs, _, _ := runTracedFactor(t, a, P, tc.factor)

			nlev := len(pcs[0].Stats.Levels)
			if nlev == 0 {
				t.Fatal("no phase-2 levels recorded")
			}
			if nlev != pcs[0].NumLevels() {
				t.Fatalf("Stats.Levels has %d entries, NumLevels=%d", nlev, pcs[0].NumLevels())
			}
			for q := 1; q < P; q++ {
				if len(pcs[q].Stats.Levels) != nlev {
					t.Fatalf("proc %d recorded %d levels, proc 0 recorded %d", q, len(pcs[q].Stats.Levels), nlev)
				}
			}

			sum := SummarizeLevels(pcs)
			total := 0
			for l, ls := range sum {
				info := pcs[0].Levels()[l]
				if ls.Start != info.Start || ls.Size != info.Size {
					t.Fatalf("level %d: summary (%d,%d) disagrees with LevelInfo (%d,%d)",
						l, ls.Start, ls.Size, info.Start, info.Size)
				}
				if ls.Pivots != ls.Size {
					t.Fatalf("level %d: local pivots sum to %d, level size is %d", l, ls.Pivots, ls.Size)
				}
				if ls.Rows == 0 {
					t.Fatalf("level %d: no rows entered the level", l)
				}
				total += ls.Size
			}
			if total != pcs[0].Stats.NInterface {
				t.Fatalf("level sizes sum to %d, interface has %d unknowns", total, pcs[0].Stats.NInterface)
			}
			for q := 0; q < P; q++ {
				for l, ls := range pcs[q].Stats.Levels {
					if ls.ReducedNNZLocal > ls.RowsLocal*tc.rowCap {
						t.Fatalf("proc %d level %d: %d reduced entries in %d rows exceeds the row cap %d",
							q, l, ls.ReducedNNZLocal, ls.RowsLocal, ls.RowsLocal*tc.rowCap)
					}
				}
			}
		})
	}
}
