package dist

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

// TestCloneForBitwiseMulVec builds distributed operators under one world,
// clones them serially (no world, no communication) from their
// pattern-only templates for a same-pattern matrix with new values, and
// checks the clones' MulVec is bitwise identical to operators built fresh
// for that matrix inside a run — the ghost-exchange plan reuse must not
// change a single bit.
func TestCloneForBitwiseMulVec(t *testing.T) {
	base := matgen.Grid2D(10, 10)
	next := matgen.Evolve(base, 1, 5e-2, 13)[0]
	const P = 4
	lay := partitionedLayout(t, base, P)

	x := make([]float64, base.N)
	for i := range x {
		x[i] = math.Sin(float64(i) + 0.5)
	}
	xParts := lay.Scatter(x)

	mulAll := func(mats []*Matrix) []float64 {
		yParts := make([][]float64, P)
		m := pcommtest.New(t, P, machine.T3D())
		m.Run(func(p pcomm.Comm) {
			y := make([]float64, lay.NLocal(p.ID()))
			mats[p.ID()].MulVec(p, y, xParts[p.ID()])
			yParts[p.ID()] = y
		})
		return lay.Gather(yParts)
	}

	templates := make([]*Matrix, P)
	m := pcommtest.New(t, P, machine.T3D())
	m.Run(func(p pcomm.Comm) {
		templates[p.ID()] = NewMatrix(p, lay, base)
	})

	// Clone serially — outside any machine run — from templates that keep
	// no matrix and no ghost buffers.
	clones := make([]*Matrix, P)
	for q := 0; q < P; q++ {
		tmpl := templates[q].Template()
		if tmpl.A != nil || tmpl.ghost != nil {
			t.Fatalf("template %d keeps its matrix or ghost buffers", q)
		}
		c, err := tmpl.CloneFor(next)
		if err != nil {
			t.Fatalf("CloneFor proc %d: %v", q, err)
		}
		clones[q] = c
	}

	fresh := make([]*Matrix, P)
	m2 := pcommtest.New(t, P, machine.T3D())
	m2.Run(func(p pcomm.Comm) {
		fresh[p.ID()] = NewMatrix(p, lay, next)
	})

	got := mulAll(clones)
	want := mulAll(fresh)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("y[%d] differs between clone and fresh operator: %x vs %x",
				i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}

	// The clone must act on the new values, not the template's.
	baseY := mulAll(templates)
	same := true
	for i := range baseY {
		if baseY[i] != got[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("clone produced the template's product — values were not rebound")
	}
}

// TestCloneForRejectsMismatches pins the guard: a clone needs the same
// dimensions and nonzero count.
func TestCloneForRejectsMismatches(t *testing.T) {
	a := matgen.Grid2D(8, 8)
	const P = 2
	lay := partitionedLayout(t, a, P)
	templates := make([]*Matrix, P)
	m := pcommtest.New(t, P, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		templates[p.ID()] = NewMatrix(p, lay, a)
	})

	if _, err := templates[0].CloneFor(matgen.Grid2D(9, 9)); err == nil {
		t.Fatal("CloneFor accepted a matrix of different dimensions")
	}
	b := sparse.NewBuilder(a.N, a.M)
	for i := 0; i < a.N; i++ {
		b.Add(i, i, 1)
	}
	if _, err := templates[0].CloneFor(b.Build()); err == nil {
		t.Fatal("CloneFor accepted a matrix with a different nonzero count")
	}
	if _, err := templates[0].Template().CloneFor(b.Build()); err == nil {
		t.Fatal("CloneFor of a template accepted a matrix with a different nonzero count")
	}
}
