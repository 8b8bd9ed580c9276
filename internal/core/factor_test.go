package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

// runFactor partitions a, factors it on P virtual processors and returns
// the per-processor pieces plus the machine result.
func runFactor(t *testing.T, a *sparse.CSR, P int, opt Options) ([]*ProcPrecond, *Plan, pcomm.Result) {
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
	m := pcommtest.New(t, P, machine.T3D())
	res := m.Run(func(p pcomm.Comm) {
		pcs[p.ID()] = Factor(p, plan, opt)
	})
	return pcs, plan, res
}

func TestPlanClassification(t *testing.T) {
	a := matgen.Grid2D(8, 8)
	g := graph.FromMatrix(a)
	part := partition.KWay(g, 4, partition.Options{Seed: 1})
	lay, err := dist.NewLayout(a.N, 4, part)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotInterior+plan.NInterface != a.N {
		t.Fatalf("interior %d + interface %d != %d", plan.TotInterior, plan.NInterface, a.N)
	}
	if plan.TotInterior == 0 {
		t.Fatal("no interior rows on an 8×8 grid with 4 parts")
	}
	// Every interior row must couple only to local rows.
	for i := 0; i < a.N; i++ {
		if !plan.Interior[i] {
			continue
		}
		cols, _ := a.Row(i)
		for _, j := range cols {
			if lay.PartOf[j] != lay.PartOf[i] {
				t.Fatalf("interior row %d couples to remote column %d", i, j)
			}
		}
	}
	// Interior new ids are a bijection onto [0, TotInterior).
	seen := make(map[int]bool)
	for i, nid := range plan.NewOfInterior {
		if plan.Interior[i] != (nid >= 0) {
			t.Fatalf("row %d: interior flag and new id disagree", i)
		}
		if nid >= 0 {
			if nid >= plan.TotInterior || seen[nid] {
				t.Fatalf("row %d: bad interior id %d", i, nid)
			}
			seen[nid] = true
		}
	}
}

func TestSingleProcessorEqualsSerialILUT(t *testing.T) {
	// With P=1 every row is interior and the parallel algorithm must
	// reduce to plain serial ILUT in natural order.
	a := matgen.RandomSPDPattern(50, 5, 2)
	opt := Options{Params: ilu.Params{M: 4, Tau: 1e-3}}
	pcs, _, _ := runFactor(t, a, 1, opt)
	f, perm, err := GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if p != i {
			t.Fatalf("P=1 permutation not identity at %d", i)
		}
	}
	want, _, err := ilu.ILUT(a, opt.Params)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxAbsDiff(f.L, want.L); d > 1e-12 {
		t.Errorf("L differs from serial ILUT by %v", d)
	}
	if d := sparse.MaxAbsDiff(f.U, want.U); d > 1e-12 {
		t.Errorf("U differs from serial ILUT by %v", d)
	}
}

func TestParallelCompleteLUExact(t *testing.T) {
	// With no dropping, the parallel factorization is the *complete* LU of
	// the permuted matrix: L·U must equal P·A·Pᵀ to round-off. This
	// exercises both phases end to end.
	a := matgen.Grid2D(7, 7)
	for _, P := range []int{2, 4} {
		pcs, _, _ := runFactor(t, a, P, Options{Params: ilu.Params{M: 0, Tau: 0}})
		f, perm, err := GatherFactors(pcs)
		if err != nil {
			t.Fatal(err)
		}
		pap := a.Permute(perm)
		lu := f.Product()
		if d := sparse.MaxAbsDiff(lu, pap); d > 1e-8 {
			t.Errorf("P=%d: ‖LU − PAPᵀ‖∞ = %v", P, d)
		}
		if err := f.CheckStructure(); err != nil {
			t.Errorf("P=%d: %v", P, err)
		}
	}
}

func TestParallelCompleteLUExactNonsymmetric(t *testing.T) {
	a := matgen.ConvDiff2D(7, 7, 9, -4)
	pcs, _, _ := runFactor(t, a, 3, Options{Params: ilu.Params{M: 0, Tau: 0}})
	f, perm, err := GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	pap := a.Permute(perm)
	if d := sparse.MaxAbsDiff(f.Product(), pap); d > 1e-5*sparse.NormInf(pap.Vals) {
		t.Errorf("‖LU − PAPᵀ‖∞ = %v", d)
	}
}

func TestFactorizationInvariants(t *testing.T) {
	a := matgen.Torso(6, 6, 6, 5)
	for _, P := range []int{2, 4, 8} {
		opt := Options{Params: ilu.Params{M: 5, Tau: 1e-4, K: 2}}
		pcs, plan, _ := runFactor(t, a, P, opt)
		f, perm, err := GatherFactors(pcs)
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if err := f.CheckStructure(); err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		sparse.InversePermutation(perm) // validity check
		// Interior unknowns come first in the elimination order.
		for i := 0; i < a.N; i++ {
			if plan.Interior[i] && perm[i] >= plan.TotInterior {
				t.Fatalf("P=%d: interior row %d ordered into the interface range", P, i)
			}
			if !plan.Interior[i] && perm[i] < plan.TotInterior {
				t.Fatalf("P=%d: interface row %d ordered into the interior range", P, i)
			}
		}
		// Levels cover the interface exactly.
		covered := 0
		for _, l := range pcs[0].Levels() {
			if l.Start != plan.TotInterior+covered {
				t.Fatalf("P=%d: level starts at %d, want %d", P, l.Start, plan.TotInterior+covered)
			}
			covered += l.Size
		}
		if covered != plan.NInterface {
			t.Fatalf("P=%d: levels cover %d of %d interface rows", P, covered, plan.NInterface)
		}
		// Fill caps respected (M per row in L; M+diag in U).
		for i := 0; i < a.N; i++ {
			if f.L.RowNNZ(i) > opt.Params.M {
				t.Fatalf("P=%d: L row %d has %d > M entries", P, i, f.L.RowNNZ(i))
			}
			if f.U.RowNNZ(i) > opt.Params.M+1 {
				t.Fatalf("P=%d: U row %d has %d > M+1 entries", P, i, f.U.RowNNZ(i))
			}
		}
	}
}

func TestLevelsAreIndependentSets(t *testing.T) {
	// Reconstruct the permuted matrix's factor structure and verify the
	// defining property: within a level, no two unknowns are coupled
	// through L or U (the factorization's own fill included).
	a := matgen.Torso(5, 5, 5, 7)
	P := 4
	pcs, plan, _ := runFactor(t, a, P, Options{Params: ilu.Params{M: 8, Tau: 1e-6}})
	f, _, err := GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	levelOf := make([]int, a.N)
	for i := range levelOf {
		levelOf[i] = -1
	}
	for l, info := range pcs[0].Levels() {
		for nid := info.Start; nid < info.Start+info.Size; nid++ {
			levelOf[nid] = l
		}
	}
	check := func(m *sparse.CSR, name string) {
		for i := plan.TotInterior; i < a.N; i++ {
			cols, _ := m.Row(i)
			for _, j := range cols {
				if j != i && j >= plan.TotInterior && levelOf[i] == levelOf[j] {
					t.Fatalf("%s couples unknowns %d and %d of level %d", name, i, j, levelOf[i])
				}
			}
		}
	}
	check(f.L, "L")
	check(f.U, "U")
}

func TestILUTStarReducesLevels(t *testing.T) {
	// The paper's headline claim: the K·M cap on reduced rows shrinks the
	// number of independent sets for small thresholds.
	a := matgen.Torso(8, 8, 8, 3)
	P := 8
	plain, _, _ := runFactor(t, a, P, Options{Params: ilu.Params{M: 10, Tau: 1e-6, K: 0}})
	star, _, _ := runFactor(t, a, P, Options{Params: ilu.Params{M: 10, Tau: 1e-6, K: 2}})
	qPlain := plain[0].NumLevels()
	qStar := star[0].NumLevels()
	if qStar > qPlain {
		t.Errorf("ILUT* used more levels (%d) than ILUT (%d)", qStar, qPlain)
	}
	t.Logf("levels: ILUT=%d ILUT*=%d", qPlain, qStar)
}

func TestSolveInvertsDistributedFactors(t *testing.T) {
	a := matgen.Grid2D(10, 10)
	n := a.N
	for _, P := range []int{1, 2, 4, 6} {
		g := graph.FromMatrix(a)
		part := partition.KWay(g, P, partition.Options{Seed: 3})
		lay, err := dist.NewLayout(n, P, part)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(a, lay)
		if err != nil {
			t.Fatal(err)
		}
		pcs := make([]*ProcPrecond, P)
		bParts := make([][]float64, P)
		yParts := make([][]float64, P)

		// Global reference: gather factors, apply serial solve.
		m := pcommtest.New(t, P, machine.T3D())
		rng := rand.New(rand.NewSource(8))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		m.Run(func(p pcomm.Comm) {
			pcs[p.ID()] = Factor(p, plan, Options{Params: ilu.Params{M: 6, Tau: 1e-4}})
		})
		f, perm, err := GatherFactors(pcs)
		if err != nil {
			t.Fatal(err)
		}
		// Serial: solve on permuted system. Local b vectors are in
		// original row order; permute reference to match.
		bPerm := sparse.PermuteVec(b, perm)
		want := make([]float64, n)
		f.Solve(want, bPerm)
		wantOrig := make([]float64, n)
		for i := 0; i < n; i++ {
			wantOrig[i] = want[perm[i]]
		}

		for q := 0; q < P; q++ {
			bParts[q] = make([]float64, lay.NLocal(q))
			for k, gI := range lay.Rows[q] {
				bParts[q][k] = b[gI]
			}
			yParts[q] = make([]float64, lay.NLocal(q))
		}
		m2 := pcommtest.New(t, P, machine.T3D())
		m2.Run(func(p pcomm.Comm) {
			pcs[p.ID()].Solve(p, yParts[p.ID()], bParts[p.ID()])
		})
		got := lay.Gather(yParts)
		for i := 0; i < n; i++ {
			if math.Abs(got[i]-wantOrig[i]) > 1e-9*math.Max(1, math.Abs(wantOrig[i])) {
				t.Fatalf("P=%d: solve mismatch at %d: %v vs %v", P, i, got[i], wantOrig[i])
			}
		}
	}
}

func TestPreconditionerReducesResidual(t *testing.T) {
	a := matgen.Torso(6, 6, 6, 9)
	n := a.N
	P := 4
	g := graph.FromMatrix(a)
	part := partition.KWay(g, P, partition.Options{Seed: 5})
	lay, _ := dist.NewLayout(n, P, part)
	plan, _ := NewPlan(a, lay)
	pcs := make([]*ProcPrecond, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		pcs[p.ID()] = Factor(p, plan, Options{Params: ilu.Params{M: 10, Tau: 1e-4, K: 2}})
	})
	b := sparse.Ones(n)
	bParts := lay.Scatter(b)
	xParts := make([][]float64, P)
	for q := range xParts {
		xParts[q] = make([]float64, lay.NLocal(q))
	}
	m2 := pcommtest.New(t, P, machine.T3D())
	m2.Run(func(p pcomm.Comm) {
		pcs[p.ID()].Solve(p, xParts[p.ID()], bParts[p.ID()])
	})
	x := lay.Gather(xParts)
	r := make([]float64, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if rel := sparse.Norm2(r) / sparse.Norm2(b); rel > 0.6 {
		t.Errorf("preconditioned step leaves relative residual %v", rel)
	}
}

func TestFactorStats(t *testing.T) {
	a := matgen.Grid2D(12, 12)
	pcs, plan, res := runFactor(t, a, 4, Options{Params: ilu.Params{M: 5, Tau: 1e-4}})
	if res.Elapsed <= 0 {
		t.Error("no modelled time elapsed")
	}
	if res.TotalFlops() <= 0 {
		t.Error("no flops recorded on the machine")
	}
	totInt := 0
	for _, pc := range pcs {
		totInt += pc.Stats.NInterior
		if pc.Stats.NumLevels != pcs[0].Stats.NumLevels {
			t.Error("processors disagree on level count")
		}
	}
	if totInt != plan.TotInterior {
		t.Errorf("interior counts sum to %d, want %d", totInt, plan.TotInterior)
	}
}

func TestFactorDeterministic(t *testing.T) {
	a := matgen.Grid2D(9, 9)
	opt := Options{Params: ilu.Params{M: 4, Tau: 1e-3}, Seed: 2}
	p1, _, _ := runFactor(t, a, 4, opt)
	p2, _, _ := runFactor(t, a, 4, opt)
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

// TestStaticColoringInvalidatedByFill reproduces the paper's Figure 1: a
// colouring of the interface rows computed from the *static* pattern of A
// (valid for ILU(0)) is no longer an elimination schedule once ILUT's
// fill adds dependencies — two same-colour unknowns end up coupled
// through the factors.
func TestStaticColoringInvalidatedByFill(t *testing.T) {
	a := matgen.Torso(7, 7, 7, 6)
	P := 6
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

	// Static colouring of the interface sub-graph of A.
	iface := make([]int, 0, plan.NInterface)
	ifaceIdx := make(map[int]int)
	for i := 0; i < a.N; i++ {
		if !plan.Interior[i] {
			ifaceIdx[i] = len(iface)
			iface = append(iface, i)
		}
	}
	sub := sparse.NewBuilder(len(iface), len(iface))
	for k, i := range iface {
		sub.Add(k, k, 1)
		cols, _ := a.Row(i)
		for _, j := range cols {
			if kj, ok := ifaceIdx[j]; ok && kj != k {
				sub.Add(k, kj, 1)
			}
		}
	}
	ifaceGraph := graph.FromMatrix(sub.Build())
	color, nc := ifaceGraph.GreedyColoring(nil)
	if !ifaceGraph.ValidateColoring(color) {
		t.Fatal("static coloring invalid on the static pattern")
	}
	t.Logf("static interface coloring: %d colors for %d rows", nc, len(iface))

	// Factor with a permissive ILUT and examine the dependencies the
	// factors actually created among interface unknowns.
	pcs := make([]*ProcPrecond, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		pcs[p.ID()] = Factor(p, plan, Options{Params: ilu.Params{M: 20, Tau: 1e-8}})
	})
	f, perm, err := GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	inv := sparse.InversePermutation(perm)
	conflicts := 0
	for nid := plan.TotInterior; nid < a.N; nid++ {
		iOrig := inv[nid]
		scan := func(msp *sparse.CSR) {
			cols, _ := msp.Row(nid)
			for _, c := range cols {
				if c < plan.TotInterior || c == nid {
					continue
				}
				jOrig := inv[c]
				if color[ifaceIdx[iOrig]] == color[ifaceIdx[jOrig]] {
					conflicts++
				}
			}
		}
		scan(f.L)
		scan(f.U)
	}
	if conflicts == 0 {
		t.Error("expected ILUT fill to create same-colour dependencies (Figure 1b); found none")
	} else {
		t.Logf("fill created %d same-colour dependencies — the static schedule is invalid for ILUT", conflicts)
	}
}
