package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

func partitionedLayout(t *testing.T, a *sparse.CSR, P int) *Layout {
	t.Helper()
	g := graph.FromMatrix(a)
	part := partition.KWay(g, P, partition.Options{Seed: 1})
	lay, err := NewLayout(a.N, P, part)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func TestLayoutBasics(t *testing.T) {
	part := []int{0, 1, 0, 1, 1}
	lay, err := NewLayout(5, 2, part)
	if err != nil {
		t.Fatal(err)
	}
	if lay.NLocal(0) != 2 || lay.NLocal(1) != 3 {
		t.Fatalf("NLocal = %d,%d", lay.NLocal(0), lay.NLocal(1))
	}
	if lay.LocalIndex(0, 2) != 1 {
		t.Errorf("LocalIndex(0,2) = %d, want 1", lay.LocalIndex(0, 2))
	}
	if lay.LocalIndex(0, 1) != -1 {
		t.Errorf("LocalIndex for unowned row should be -1")
	}
	x := []float64{10, 11, 12, 13, 14}
	parts := lay.Scatter(x)
	back := lay.Gather(parts)
	for i := range x {
		if back[i] != x[i] {
			t.Fatalf("scatter/gather mismatch at %d", i)
		}
	}
}

func TestLayoutErrors(t *testing.T) {
	if _, err := NewLayout(3, 2, []int{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewLayout(2, 2, []int{0, 5}); err == nil {
		t.Error("invalid processor accepted")
	}
}

func TestDistributedMulVecMatchesSerial(t *testing.T) {
	a := matgen.Grid2D(12, 12)
	n := a.N
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	a.MulVec(want, x)

	for _, P := range []int{1, 2, 4, 8} {
		lay := partitionedLayout(t, a, P)
		xParts := lay.Scatter(x)
		yParts := make([][]float64, P)
		m := pcommtest.New(t, P, machine.T3D())
		m.Run(func(p pcomm.Comm) {
			dm := NewMatrix(p, lay, a)
			y := make([]float64, lay.NLocal(p.ID()))
			dm.MulVec(p, y, xParts[p.ID()])
			yParts[p.ID()] = y
		})
		got := lay.Gather(yParts)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("P=%d: y[%d] = %v, want %v", P, i, got[i], want[i])
			}
		}
	}
}

func TestDistributedMulVecNonsymmetric(t *testing.T) {
	a := matgen.ConvDiff2D(8, 8, 15, -7)
	n := a.N
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, n)
	a.MulVec(want, x)
	P := 4
	lay := partitionedLayout(t, a, P)
	xParts := lay.Scatter(x)
	yParts := make([][]float64, P)
	m := pcommtest.New(t, P, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		dm := NewMatrix(p, lay, a)
		y := make([]float64, lay.NLocal(p.ID()))
		dm.MulVec(p, y, xParts[p.ID()])
		yParts[p.ID()] = y
	})
	got := lay.Gather(yParts)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	a := matgen.Grid2D(6, 6)
	n := a.N
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
		y[i] = 1.0 / float64(i+1)
	}
	wantDot := sparse.Dot(x, y)
	wantNorm := sparse.Norm2(x)

	P := 3
	lay := partitionedLayout(t, a, P)
	xp := lay.Scatter(x)
	yp := lay.Scatter(y)
	var gotDot, gotNorm [3]float64
	m := pcommtest.New(t, P, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		gotDot[p.ID()] = Dot(p, xp[p.ID()], yp[p.ID()])
		gotNorm[p.ID()] = Norm2(p, xp[p.ID()])
	})
	for q := 0; q < P; q++ {
		if math.Abs(gotDot[q]-wantDot) > 1e-9*math.Abs(wantDot) {
			t.Errorf("proc %d dot = %v, want %v", q, gotDot[q], wantDot)
		}
		if math.Abs(gotNorm[q]-wantNorm) > 1e-9*wantNorm {
			t.Errorf("proc %d norm = %v, want %v", q, gotNorm[q], wantNorm)
		}
	}
}

func TestGhostCountsShrinkWithGoodPartition(t *testing.T) {
	a := matgen.Grid2D(20, 20)
	P := 4
	g := graph.FromMatrix(a)

	count := func(part []int) int {
		if _, err := NewLayout(a.N, P, part); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, isB := range g.Boundary(part) {
			if isB {
				total++
			}
		}
		return total
	}
	good := count(partition.KWay(g, P, partition.Options{Seed: 2}))
	bad := count(partition.RandomKWay(g, P, 2))
	if good*2 >= bad {
		t.Errorf("good partition boundary %d not ≪ random %d", good, bad)
	}
}

func TestMulVecCostReflectsCommunication(t *testing.T) {
	// With a nonzero cost model, the elapsed time of a distributed SpMV
	// must exceed pure compute time (communication overhead exists) and
	// per-proc compute must shrink as P grows. The assertion is about the
	// virtual clock, so the test pins the modelled backend regardless of
	// PILUT_BACKEND.
	a := matgen.Grid2D(24, 24)
	elapsed := func(P int) float64 {
		lay := partitionedLayout(t, a, P)
		x := make([]float64, a.N)
		for i := range x {
			x[i] = 1
		}
		xp := lay.Scatter(x)
		m := modelled.New(P, machine.T3D())
		res := m.Run(func(p pcomm.Comm) {
			dm := NewMatrix(p, lay, a)
			y := make([]float64, lay.NLocal(p.ID()))
			for it := 0; it < 10; it++ {
				dm.MulVec(p, y, xp[p.ID()])
			}
		})
		return res.Elapsed
	}
	t1 := elapsed(1)
	t4 := elapsed(4)
	if t4 >= t1 {
		t.Errorf("4-proc SpMV (%v) not faster than 1-proc (%v)", t4, t1)
	}
}

// TestMulVecBatchMatchesSerial checks the one product path at both batch
// sizes that reach it: B = 1 (what MulVec passes) and a real batch.
func TestMulVecBatchMatchesSerial(t *testing.T) {
	for _, B := range []int{1, 3} {
		t.Run(fmt.Sprintf("B=%d", B), func(t *testing.T) { mulVecBatchMatchesSerial(t, B) })
	}
}

func mulVecBatchMatchesSerial(t *testing.T, B int) {
	const P = 4
	a := matgen.Grid2D(15, 15)
	lay := partitionedLayout(t, a, P)
	rng := rand.New(rand.NewSource(11))
	xsGlobal := make([][]float64, B)
	want := make([][]float64, B)
	for bi := range xsGlobal {
		xsGlobal[bi] = make([]float64, a.N)
		for i := range xsGlobal[bi] {
			xsGlobal[bi][i] = rng.NormFloat64()
		}
		want[bi] = make([]float64, a.N)
		a.MulVec(want[bi], xsGlobal[bi])
	}

	ysParts := make([][][]float64, B)
	for bi := range ysParts {
		ysParts[bi] = make([][]float64, P)
	}
	var msgsBatch int64
	m := pcommtest.New(t, P, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		dm := NewMatrix(p, lay, a)
		xs := make([][]float64, B)
		ys := make([][]float64, B)
		for bi := 0; bi < B; bi++ {
			xs[bi] = lay.Scatter(xsGlobal[bi])[p.ID()]
			ys[bi] = make([]float64, lay.NLocal(p.ID()))
		}
		before := p.Stats().MsgsSent
		dm.MulVecBatch(p, ys, xs)
		if p.ID() == 0 {
			msgsBatch = p.Stats().MsgsSent - before
		}
		for bi := 0; bi < B; bi++ {
			ysParts[bi][p.ID()] = ys[bi]
		}
	})
	for bi := 0; bi < B; bi++ {
		got := lay.Gather(ysParts[bi])
		for i := range got {
			if math.Abs(got[i]-want[bi][i]) > 1e-12 {
				t.Fatalf("rhs %d: batch MulVec differs at %d: %v vs %v", bi, i, got[i], want[bi][i])
			}
		}
	}

	// The batch ships one message per neighbour regardless of B; a loop
	// of single MulVec calls would send B times as many.
	var msgsSingle int64
	m2 := pcommtest.New(t, P, machine.Zero())
	m2.Run(func(p pcomm.Comm) {
		dm := NewMatrix(p, lay, a)
		x := lay.Scatter(xsGlobal[0])[p.ID()]
		y := make([]float64, lay.NLocal(p.ID()))
		before := p.Stats().MsgsSent
		dm.MulVec(p, y, x)
		if p.ID() == 0 {
			msgsSingle = p.Stats().MsgsSent - before
		}
	})
	if msgsBatch != msgsSingle {
		t.Fatalf("batch sent %d messages, single product sends %d — batching must not multiply message count", msgsBatch, msgsSingle)
	}
}
