package matgen

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/sparse"
)

func TestGrid2DStructure(t *testing.T) {
	a := Grid2D(3, 4)
	if a.N != 12 || a.M != 12 {
		t.Fatalf("dims %d×%d, want 12×12", a.N, a.M)
	}
	// Interior point (1,1) = row 1*4+1 = 5 has 5 entries.
	if got := a.RowNNZ(5); got != 5 {
		t.Errorf("interior row nnz = %d, want 5", got)
	}
	// Corner (0,0) has 3 entries.
	if got := a.RowNNZ(0); got != 3 {
		t.Errorf("corner row nnz = %d, want 3", got)
	}
	if a.At(0, 0) != 4 || a.At(0, 1) != -1 || a.At(0, 4) != -1 {
		t.Error("wrong stencil values")
	}
}

func TestGrid2DSymmetric(t *testing.T) {
	a := Grid2D(5, 6)
	at := a.Transpose()
	if sparse.MaxAbsDiff(a, at) != 0 {
		t.Error("Grid2D not symmetric")
	}
}

func TestGrid2DDiagonallyDominantAndSPDish(t *testing.T) {
	a := Grid2D(6, 6)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		var off float64
		var diag float64
		for k, j := range cols {
			if j == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag < off {
			t.Fatalf("row %d not diagonally dominant: %v < %v", i, diag, off)
		}
	}
}

func TestGrid3DStructure(t *testing.T) {
	a := Grid3D(3, 3, 3)
	if a.N != 27 {
		t.Fatalf("N = %d, want 27", a.N)
	}
	// Centre vertex has 7 entries.
	centre := (1*3+1)*3 + 1
	if got := a.RowNNZ(centre); got != 7 {
		t.Errorf("centre row nnz = %d, want 7", got)
	}
	if sparse.MaxAbsDiff(a, a.Transpose()) != 0 {
		t.Error("Grid3D not symmetric")
	}
}

func TestTorsoProperties(t *testing.T) {
	a := Torso(6, 6, 6, 3)
	if a.N != 216 {
		t.Fatalf("N = %d, want 216", a.N)
	}
	// Symmetric (values, not just structure).
	if d := sparse.MaxAbsDiff(a, a.Transpose()); d > 1e-12 {
		t.Errorf("Torso asymmetric by %v", d)
	}
	// Strictly positive diagonal, nonpositive off-diagonals.
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j == i && vals[k] <= 0 {
				t.Fatalf("diagonal %d = %v not positive", i, vals[k])
			}
			if j != i && vals[k] > 0 {
				t.Fatalf("off-diagonal (%d,%d) = %v positive", i, j, vals[k])
			}
		}
	}
	// Weak diagonal dominance with at least some strict rows (boundary).
	strict := 0
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		var off, diag float64
		for k, j := range cols {
			if j == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag < off-1e-12 {
			t.Fatalf("row %d violates weak dominance", i)
		}
		if diag > off+1e-12 {
			strict++
		}
	}
	if strict == 0 {
		t.Error("no strictly dominant rows; Dirichlet boundary missing")
	}
}

func TestTorsoDeterministicPerSeed(t *testing.T) {
	a := Torso(5, 5, 5, 9)
	b := Torso(5, 5, 5, 9)
	if !a.Equal(b) {
		t.Error("same seed produced different matrices")
	}
	c := Torso(5, 5, 5, 10)
	if a.Equal(c) {
		t.Error("different seeds produced identical matrices (suspicious)")
	}
}

func TestTorsoCoefficientJumps(t *testing.T) {
	// The conductivity field must actually produce varying magnitudes:
	// ratio of largest to smallest diagonal should exceed 10.
	a := Torso(10, 10, 10, 4)
	d := a.Diagonal()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range d {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo < 10 {
		t.Errorf("diagonal ratio %.2f, want ≥ 10 (jump coefficients missing)", hi/lo)
	}
}

func TestConvDiff2DNonsymmetric(t *testing.T) {
	a := ConvDiff2D(5, 5, 20, 10)
	if d := sparse.MaxAbsDiff(a, a.Transpose()); d == 0 {
		t.Error("ConvDiff2D with nonzero velocity should be nonsymmetric")
	}
	// Structurally symmetric though.
	at := a.Transpose()
	if !reflect.DeepEqual(a.RowPtr, at.RowPtr) || !reflect.DeepEqual(a.Cols, at.Cols) {
		t.Error("ConvDiff2D should be structurally symmetric")
	}
}

func TestAnisotropic2D(t *testing.T) {
	a := Anisotropic2D(4, 4, 0.01)
	if a.At(0, 0) != 2+2*0.01 {
		t.Errorf("diagonal = %v", a.At(0, 0))
	}
	if a.At(0, 4) != -1 { // x-neighbour (i+1,j) at row distance ny=4
		t.Errorf("x coupling = %v, want -1", a.At(0, 4))
	}
	if a.At(0, 1) != -0.01 {
		t.Errorf("y coupling = %v, want -0.01", a.At(0, 1))
	}
}

func TestRandomSPDPattern(t *testing.T) {
	a := RandomSPDPattern(50, 6, 5)
	if d := sparse.MaxAbsDiff(a, a.Transpose()); d > 1e-12 {
		t.Errorf("RandomSPDPattern asymmetric by %v", d)
	}
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		var off, diag float64
		for k, j := range cols {
			if j == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not strictly dominant", i)
		}
	}
}

func TestMortonPermutationIsPermutation(t *testing.T) {
	p := mortonPermutation(4, 5, 3, 2)
	sparse.InversePermutation(p) // panics if invalid
	if len(p) != 60 {
		t.Fatalf("length %d, want 60", len(p))
	}
}

func TestInterleave3(t *testing.T) {
	if interleave3(0, 0, 0) != 0 {
		t.Error("zero key")
	}
	// x=1,y=0,z=0 → bit 0; y=1 → bit 1; z=1 → bit 2.
	if interleave3(1, 0, 0) != 1 || interleave3(0, 1, 0) != 2 || interleave3(0, 0, 1) != 4 {
		t.Error("unit keys wrong")
	}
	// Monotone in each coordinate for small values along axes.
	if !(interleave3(2, 0, 0) > interleave3(1, 0, 0)) {
		t.Error("not monotone in x")
	}
}

func TestEvolveFixedPatternDeterministic(t *testing.T) {
	base := Grid2D(9, 7)
	baseVals := append([]float64(nil), base.Vals...)
	seq := Evolve(base, 5, 1e-2, 42)
	if len(seq) != 5 {
		t.Fatalf("Evolve returned %d steps, want 5", len(seq))
	}
	pk := sparse.PatternFingerprint(base)
	// The pattern is fixed, so the full fingerprint moves with the values alone.
	prevFP := sparse.Fingerprint(base)
	for i, m := range seq {
		if sparse.PatternFingerprint(m) != pk {
			t.Fatalf("step %d changed the sparsity pattern", i)
		}
		fp := sparse.Fingerprint(m)
		if fp == prevFP {
			t.Fatalf("step %d has the same values as the previous step", i)
		}
		prevFP = fp
	}
	// The input is untouched.
	for k, v := range base.Vals {
		if v != baseVals[k] {
			t.Fatalf("Evolve modified the input matrix at entry %d", k)
		}
	}
	// Same arguments reproduce the identical sequence bit for bit.
	again := Evolve(base, 5, 1e-2, 42)
	for i := range seq {
		if sparse.Fingerprint(seq[i]) != sparse.Fingerprint(again[i]) {
			t.Fatalf("step %d is not deterministic across calls", i)
		}
	}
	// A different seed diverges.
	other := Evolve(base, 5, 1e-2, 43)
	if sparse.Fingerprint(other[0]) == sparse.Fingerprint(seq[0]) {
		t.Fatalf("different seeds produced identical perturbations")
	}
}

func TestEvolveStaysNearDominant(t *testing.T) {
	// Grid2D interior rows are only weakly dominant (4 vs 4), so a
	// perturbed row can dip slightly below strict dominance; what Evolve
	// must guarantee is that after s steps of amplitude amp the
	// diagonal/off-diagonal ratio never falls below ((1−amp)/(1+amp))^s —
	// the worst case of the multiplicative walk.
	const amp, steps = 1e-2, 8
	seq := Evolve(Grid2D(8, 8), steps, amp, 7)
	for i, m := range seq {
		bound := math.Pow((1-amp)/(1+amp), float64(i+1))
		for r := 0; r < m.N; r++ {
			cols, vals := m.Row(r)
			var diag, off float64
			for k, j := range cols {
				if j == r {
					diag = math.Abs(vals[k])
				} else {
					off += math.Abs(vals[k])
				}
			}
			if diag < bound*off {
				t.Fatalf("step %d row %d drifted past the walk bound: |diag|=%g sum|off|=%g bound=%g",
					i, r, diag, off, bound)
			}
		}
	}
}

// TestGeneratorsPassCheck: every generator's output satisfies the CSR
// invariants a peer's wire decoder insists on, so nothing this package
// makes can be refused on its way between daemons.
func TestGeneratorsPassCheck(t *testing.T) {
	zoo := map[string]*sparse.CSR{
		"grid2d":   Grid2D(12, 12),
		"grid3d":   Grid3D(5, 5, 5),
		"torso":    Torso(6, 6, 6, 1),
		"convdiff": ConvDiff2D(12, 12, 20, 5),
		"aniso":    Anisotropic2D(12, 12, 0.01),
		"randspd":  RandomSPDPattern(150, 5, 3),
	}
	for i, a := range Evolve(zoo["torso"], 3, 0.1, 7) {
		zoo[fmt.Sprintf("evolve-%d", i)] = a
	}
	for name, a := range zoo {
		if err := a.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
