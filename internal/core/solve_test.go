package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

// solveFixture factors a problem and returns everything needed to compare
// distributed solves against the gathered global factors.
func solveFixture(t *testing.T, P int) ([]*ProcPrecond, *Plan, *ilu.Factors, []int) {
	t.Helper()
	a := matgen.Torso(5, 5, 7, 2)
	plan := mustPrepare(t, a, P, 4)
	pcs := make([]*ProcPrecond, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		pcs[p.ID()] = Factor(p, plan, Options{Params: ilu.Params{M: 7, Tau: 1e-4, K: 2}})
	})
	f, perm, err := GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	return pcs, plan, f, perm
}

func distApply(t *testing.T, plan *Plan, pcs []*ProcPrecond, b []float64,
	apply func(pc *ProcPrecond, p pcomm.Comm, y, b []float64)) []float64 {
	t.Helper()
	lay := plan.Lay
	bParts := lay.Scatter(b)
	yParts := make([][]float64, lay.P)
	m := pcommtest.New(t, lay.P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		y := make([]float64, lay.NLocal(p.ID()))
		apply(pcs[p.ID()], p, y, bParts[p.ID()])
		yParts[p.ID()] = y
	})
	return lay.Gather(yParts)
}

func TestSolveForwardMatchesGathered(t *testing.T) {
	P := 4
	pcs, plan, f, perm := solveFixture(t, P)
	n := plan.A.N
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := distApply(t, plan, pcs, b, func(pc *ProcPrecond, p pcomm.Comm, y, bl []float64) {
		pc.SolveForward(p, y, bl)
	})
	want := make([]float64, n)
	f.SolveL(want, sparse.PermuteVec(b, perm))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-want[perm[i]]) > 1e-10*math.Max(1, math.Abs(want[perm[i]])) {
			t.Fatalf("forward mismatch at %d: %v vs %v", i, got[i], want[perm[i]])
		}
	}
}

func TestSolveBackwardMatchesGathered(t *testing.T) {
	P := 4
	pcs, plan, f, perm := solveFixture(t, P)
	n := plan.A.N
	rng := rand.New(rand.NewSource(6))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := distApply(t, plan, pcs, b, func(pc *ProcPrecond, p pcomm.Comm, y, bl []float64) {
		pc.SolveBackward(p, y, bl)
	})
	want := make([]float64, n)
	f.SolveU(want, sparse.PermuteVec(b, perm))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-want[perm[i]]) > 1e-9*math.Max(1, math.Abs(want[perm[i]])) {
			t.Fatalf("backward mismatch at %d: %v vs %v", i, got[i], want[perm[i]])
		}
	}
}

func TestSolveBuffersReusable(t *testing.T) {
	// Two successive solves with different right-hand sides must not
	// contaminate each other through the reused lane buffers.
	P := 3
	pcs, plan, f, perm := solveFixture(t, P)
	n := plan.A.N
	b1 := sparse.Ones(n)
	b2 := make([]float64, n)
	for i := range b2 {
		b2[i] = float64(i%5) - 2
	}
	lay := plan.Lay
	b1Parts := lay.Scatter(b1)
	b2Parts := lay.Scatter(b2)
	y2Parts := make([][]float64, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		y := make([]float64, lay.NLocal(p.ID()))
		pcs[p.ID()].Solve(p, y, b1Parts[p.ID()]) // first solve, result discarded
		y2 := make([]float64, lay.NLocal(p.ID()))
		pcs[p.ID()].Solve(p, y2, b2Parts[p.ID()])
		y2Parts[p.ID()] = y2
	})
	got := lay.Gather(y2Parts)
	want := make([]float64, n)
	f.Solve(want, sparse.PermuteVec(b2, perm))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-want[perm[i]]) > 1e-9*math.Max(1, math.Abs(want[perm[i]])) {
			t.Fatalf("second solve mismatch at %d", i)
		}
	}
}

func TestSolveAliasedVectors(t *testing.T) {
	// Solve must allow y and b to alias, as DistGMRES relies on.
	P := 2
	pcs, plan, f, perm := solveFixture(t, P)
	n := plan.A.N
	b := sparse.Ones(n)
	lay := plan.Lay
	parts := lay.Scatter(b)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		pcs[p.ID()].Solve(p, parts[p.ID()], parts[p.ID()])
	})
	got := lay.Gather(parts)
	want := make([]float64, n)
	f.Solve(want, sparse.PermuteVec(b, perm))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-want[perm[i]]) > 1e-9*math.Max(1, math.Abs(want[perm[i]])) {
			t.Fatalf("aliased solve mismatch at %d", i)
		}
	}
}

func TestSolvePanicsOnBadLength(t *testing.T) {
	P := 2
	pcs, plan, _, _ := solveFixture(t, P)
	short := func(int) []float64 { return make([]float64, 1) }
	full := func(me int) []float64 { return make([]float64, plan.Lay.NLocal(me)) }
	cases := []struct {
		msg   string
		apply func(p pcomm.Comm, pc *ProcPrecond)
	}{
		{"core: SolveForward local vector length mismatch", func(p pcomm.Comm, pc *ProcPrecond) {
			pc.SolveForward(p, short(p.ID()), full(p.ID()))
		}},
		{"core: SolveBackward local vector length mismatch", func(p pcomm.Comm, pc *ProcPrecond) {
			pc.SolveBackward(p, full(p.ID()), short(p.ID()))
		}},
		{"core: SolveForward local vector length mismatch", func(p pcomm.Comm, pc *ProcPrecond) {
			pc.Solve(p, short(p.ID()), full(p.ID()))
		}},
		{"core: SolveBatch local vector length mismatch", func(p pcomm.Comm, pc *ProcPrecond) {
			pc.SolveBatch(p, [][]float64{full(p.ID()), short(p.ID())}, [][]float64{full(p.ID()), full(p.ID())})
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.msg) {
					t.Errorf("recovered %v, want a panic carrying %q", r, tc.msg)
				}
			}()
			m := pcommtest.New(t, P, machine.T3D())
			m.Run(func(p pcomm.Comm) { tc.apply(p, pcs[p.ID()]) })
		}()
	}
}

func TestSolveSendsOnlyThePlan(t *testing.T) {
	// §5 of the paper: the substitutions exchange interface values with the
	// processors that need them. A forward solve posts exactly its plan's
	// messages — at most one per level and neighbour — and no collective.
	P := 4
	pcs, plan, _, _ := solveFixture(t, P)
	lay := plan.Lay
	b := sparse.Ones(plan.A.N)
	parts := lay.Scatter(b)
	m := pcommtest.New(t, P, machine.T3D())
	res := m.Run(func(p pcomm.Comm) {
		y := make([]float64, lay.NLocal(p.ID()))
		pcs[p.ID()].SolveForward(p, y, parts[p.ID()])
	})
	q := pcs[0].NumLevels()
	for r, pc := range pcs {
		st := res.PerProc[r]
		if st.Collectives != 0 || st.MsgsSent != int64(len(pc.fwd.send)) {
			t.Errorf("proc %d: forward solve used %d collectives and %d messages, want 0 and %d",
				r, st.Collectives, st.MsgsSent, len(pc.fwd.send))
		}
		if len(pc.fwd.send) == 0 || len(pc.fwd.send) > q*(P-1) {
			t.Errorf("proc %d: forward plan has %d messages for q=%d levels and %d neighbours", r, len(pc.fwd.send), q, P-1)
		}
	}
}
