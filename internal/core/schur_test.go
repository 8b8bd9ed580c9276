package core

import (
	"math"
	"testing"

	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

func TestSchurCompleteLUExact(t *testing.T) {
	a := matgen.Grid2D(7, 7)
	for _, P := range []int{2, 4} {
		pcs, _, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withOptions(Options{Params: ilu.Params{M: 0, Tau: 0}, Schur: true}))
		f, perm, err := GatherFactors(pcs)
		if err != nil {
			t.Fatal(err)
		}
		pap := a.Permute(perm)
		if d := sparse.MaxAbsDiff(f.Product(), pap); d > 1e-8 {
			t.Errorf("P=%d: ‖LU − PAPᵀ‖∞ = %v", P, d)
		}
		if err := f.CheckStructure(); err != nil {
			t.Errorf("P=%d: %v", P, err)
		}
	}
}

func TestSchurSolveMatchesGatheredFactors(t *testing.T) {
	a := matgen.Torso(6, 6, 6, 3)
	n := a.N
	P := 4
	pcs, plan, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withOptions(Options{Params: ilu.Params{M: 8, Tau: 1e-4, K: 2}, Schur: true}))
	lay := plan.Lay
	f, perm, err := GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.7)
	}
	bPerm := sparse.PermuteVec(b, perm)
	want := make([]float64, n)
	f.Solve(want, bPerm)
	wantOrig := make([]float64, n)
	for i := 0; i < n; i++ {
		wantOrig[i] = want[perm[i]]
	}
	bParts := lay.Scatter(b)
	yParts := make([][]float64, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		y := make([]float64, lay.NLocal(p.ID()))
		pcs[p.ID()].Solve(p, y, bParts[p.ID()])
		yParts[p.ID()] = y
	})
	got := lay.Gather(yParts)
	for i := range got {
		if math.Abs(got[i]-wantOrig[i]) > 1e-9*math.Max(1, math.Abs(wantOrig[i])) {
			t.Fatalf("solve mismatch at %d: %v vs %v", i, got[i], wantOrig[i])
		}
	}
}

func TestSchurReducesLevelsVsMIS(t *testing.T) {
	a := matgen.Torso(8, 8, 8, 3)
	P := 8
	params := ilu.Params{M: 10, Tau: 1e-6, K: 2}

	pcsS, _, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withOptions(Options{Params: params, Schur: true}))
	pcsM, _, _ := factorOn(t, pcommtest.New(t, P, machine.T3D()), a, withOptions(Options{Params: params}))
	qS := pcsS[0].NumLevels()
	qM := pcsM[0].NumLevels()
	t.Logf("levels: schur=%d mis-only=%d", qS, qM)
	if qS > qM {
		t.Errorf("schur variant used more levels (%d) than MIS-only (%d)", qS, qM)
	}
}

func TestSchurLevelsCoverInterface(t *testing.T) {
	a := matgen.Grid2D(12, 12)
	pcs, plan, _ := factorOn(t, pcommtest.New(t, 4, machine.T3D()), a, withOptions(Options{Params: ilu.Params{M: 5, Tau: 1e-4}, Schur: true}))
	covered := 0
	for _, l := range pcs[0].Levels() {
		if l.Start != plan.TotInterior+covered {
			t.Fatalf("level starts at %d, want %d", l.Start, plan.TotInterior+covered)
		}
		covered += l.Size
	}
	if covered != plan.NInterface {
		t.Fatalf("levels cover %d of %d interface rows", covered, plan.NInterface)
	}
}

func TestSchurDeterministic(t *testing.T) {
	a := matgen.Grid2D(9, 9)
	p1, _, _ := factorOn(t, pcommtest.New(t, 4, machine.T3D()), a, withOptions(Options{Params: ilu.Params{M: 4, Tau: 1e-3}, Schur: true}))
	p2, _, _ := factorOn(t, pcommtest.New(t, 4, machine.T3D()), a, withOptions(Options{Params: ilu.Params{M: 4, Tau: 1e-3}, Schur: true}))
	f1, perm1, _ := GatherFactors(p1)
	f2, perm2, _ := GatherFactors(p2)
	for i := range perm1 {
		if perm1[i] != perm2[i] {
			t.Fatal("permutation not deterministic")
		}
	}
	if !f1.L.Equal(f2.L) || !f1.U.Equal(f2.U) {
		t.Fatal("factors not deterministic")
	}
}
