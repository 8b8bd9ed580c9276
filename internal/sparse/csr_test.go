package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testMatrix() *CSR {
	// 4×4:
	//  2 -1  0  0
	// -1  2 -1  0
	//  0 -1  2 -1
	//  0  0 -1  2
	return FromDense([][]float64{
		{2, -1, 0, 0},
		{-1, 2, -1, 0},
		{0, -1, 2, -1},
		{0, 0, -1, 2},
	})
}

func TestFromDenseAndAt(t *testing.T) {
	a := testMatrix()
	if a.N != 4 || a.M != 4 {
		t.Fatalf("dims = %d×%d, want 4×4", a.N, a.M)
	}
	if got := a.NNZ(); got != 10 {
		t.Fatalf("NNZ = %d, want 10", got)
	}
	if got := a.At(1, 2); got != -1 {
		t.Errorf("At(1,2) = %v, want -1", got)
	}
	if got := a.At(0, 3); got != 0 {
		t.Errorf("At(0,3) = %v, want 0", got)
	}
	if got := a.At(2, 2); got != 2 {
		t.Errorf("At(2,2) = %v, want 2", got)
	}
}

func TestRowAccessorsSorted(t *testing.T) {
	a := testMatrix()
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		if len(cols) != len(vals) {
			t.Fatalf("row %d: len(cols)=%d len(vals)=%d", i, len(cols), len(vals))
		}
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d not strictly sorted: %v", i, cols)
			}
		}
	}
}

func TestBuilderDuplicatesSummed(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2.5)
	b.Add(1, 1, -1)
	b.Add(0, 1, 4)
	a := b.Build()
	if got := a.At(0, 0); got != 3.5 {
		t.Errorf("duplicate sum: got %v, want 3.5", got)
	}
	if got := a.At(0, 1); got != 4.0 {
		t.Errorf("At(0,1) = %v, want 4", got)
	}
	if a.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", a.NNZ())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestMulVec(t *testing.T) {
	a := testMatrix()
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.MulVec(y, x)
	want := []float64{0, 0, 0, 5} // tridiagonal [-1 2 -1] action
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-15 {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomCSR(rng, 17, 13, 0.2)
	x := randomVec(rng, 17)
	y1 := make([]float64, 13)
	y2 := make([]float64, 13)
	a.MulVecT(y1, x)
	a.Transpose().MulVec(y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("MulVecT mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSR(rng, 23, 11, 0.15)
	b := a.Transpose().Transpose()
	if !a.Equal(b) {
		t.Fatal("transpose twice did not return original")
	}
}

func TestTransposeEntries(t *testing.T) {
	a := testMatrix()
	at := a.Transpose()
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.M; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose entry mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPermuteSymmetric(t *testing.T) {
	a := testMatrix()
	perm := []int{2, 0, 3, 1}
	p := a.Permute(perm)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got, want := p.At(perm[i], perm[j]), a.At(i, j); got != want {
				t.Fatalf("Permute: entry (%d,%d)→(%d,%d) = %v, want %v", i, j, perm[i], perm[j], got, want)
			}
		}
	}
}

func TestPermuteIdentity(t *testing.T) {
	a := testMatrix()
	p := a.Permute(IdentityPermutation(4))
	if !a.Equal(p) {
		t.Fatal("identity permutation changed the matrix")
	}
}

func TestPermuteRows(t *testing.T) {
	a := testMatrix()
	perm := []int{3, 1, 0, 2}
	p := a.PermuteRows(perm)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got, want := p.At(perm[i], j), a.At(i, j); got != want {
				t.Fatalf("PermuteRows: row %d→%d col %d = %v, want %v", i, perm[i], j, got, want)
			}
		}
	}
}

func TestInversePermutation(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := InversePermutation(perm)
	for i, p := range perm {
		if inv[p] != i {
			t.Fatalf("inv[%d] = %d, want %d", p, inv[p], i)
		}
	}
}

func TestInversePermutationPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate permutation entry")
		}
	}()
	InversePermutation([]int{0, 0, 1})
}

func TestTransposeUnsymmetricPattern(t *testing.T) {
	a := FromDense([][]float64{
		{1, 5, 0},
		{0, 2, 0},
		{7, 0, 3},
	})
	at := a.Transpose()
	stored := func(m *CSR, i, j int) bool {
		cols, _ := m.Row(i)
		for _, c := range cols {
			if c == j {
				return true
			}
		}
		return false
	}
	// The one-directional entries (0,1) and (2,0) appear mirrored in Aᵀ
	// and only there: the union of the two patterns is what the
	// adjacency graph (graph.FromMatrix) is built from.
	for _, e := range [][2]int{{0, 1}, {2, 0}} {
		if !stored(at, e[1], e[0]) {
			t.Errorf("transpose pattern missing (%d,%d)", e[1], e[0])
		}
		if stored(at, e[0], e[1]) {
			t.Errorf("transpose pattern kept (%d,%d) unmirrored", e[0], e[1])
		}
	}
	if at.At(1, 0) != 5 || at.At(0, 2) != 7 {
		t.Error("transposition altered values")
	}
}

func TestDiagonalAndNorms(t *testing.T) {
	a := testMatrix()
	d := a.Diagonal()
	for i, v := range d {
		if v != 2 {
			t.Errorf("Diagonal[%d] = %v, want 2", i, v)
		}
	}
	if got := a.RowNorm1(1); got != 4 {
		t.Errorf("RowNorm1(1) = %v, want 4", got)
	}
	if got := a.RowNorm2(0); math.Abs(got-math.Sqrt(5)) > 1e-15 {
		t.Errorf("RowNorm2(0) = %v, want sqrt(5)", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := testMatrix()
	b := a.Clone()
	if d := MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("identical matrices differ by %v", d)
	}
	b.Vals[0] += 0.25
	if d := MaxAbsDiff(a, b); math.Abs(d-0.25) > 1e-15 {
		t.Fatalf("MaxAbsDiff = %v, want 0.25", d)
	}
	// Entry present only in b.
	c := FromDense([][]float64{{0, 0}, {0, 0}})
	e := FromDense([][]float64{{0, 0.5}, {0, 0}})
	if d := MaxAbsDiff(c, e); d != 0.5 {
		t.Fatalf("MaxAbsDiff one-sided = %v, want 0.5", d)
	}
}

func TestFromRows(t *testing.T) {
	a := FromRows(2, 3,
		[][]int{{0, 2}, {1}},
		[][]float64{{1, 2}, {3}},
	)
	if a.At(0, 2) != 2 || a.At(1, 1) != 3 || a.NNZ() != 3 {
		t.Fatal("FromRows produced wrong matrix")
	}
}

func TestFromRowsPanicsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted row")
		}
	}()
	FromRows(1, 3, [][]int{{2, 0}}, [][]float64{{1, 2}})
}

func TestIdentity(t *testing.T) {
	a := Identity(5)
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	a.MulVec(y, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity MulVec changed x at %d", i)
		}
	}
}

// Property: permuting a matrix and permuting vectors commute with MulVec:
// (P A Pᵀ)(P x) = P(A x).
func TestPermuteMulVecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		a := randomCSR(r, n, n, 0.3)
		perm := randomPermutation(r, n)
		x := randomVec(r, n)

		ax := make([]float64, n)
		a.MulVec(ax, x)
		pax := PermuteVec(ax, perm)

		pap := a.Permute(perm)
		px := PermuteVec(x, perm)
		papx := make([]float64, n)
		pap.MulVec(papx, px)

		for i := range pax {
			if math.Abs(pax[i]-papx[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Builder collapse is order-independent.
func TestBuilderOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		type trip struct {
			i, j int
			v    float64
		}
		var trips []trip
		for k := 0; k < 30; k++ {
			trips = append(trips, trip{r.Intn(n), r.Intn(n), r.NormFloat64()})
		}
		b1 := NewBuilder(n, n)
		for _, tr := range trips {
			b1.Add(tr.i, tr.j, tr.v)
		}
		a1 := b1.Build()
		// Shuffled order.
		r.Shuffle(len(trips), func(x, y int) { trips[x], trips[y] = trips[y], trips[x] })
		b2 := NewBuilder(n, n)
		for _, tr := range trips {
			b2.Add(tr.i, tr.j, tr.v)
		}
		a2 := b2.Build()
		return MaxAbsDiff(a1, a2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBuilderSortedRowsSkipTheSort: Build leaves a row that arrived in
// strictly increasing column order as it is; the same entries (distinct,
// so no sum depends on their order) arriving shuffled go through the sort.
// The two matrices must be identical to the bit.
func TestBuilderSortedRowsSkipTheSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, a := range []*CSR{randomCSR(r, 40, 30, 0.2), randomCSR(r, 1, 1, 1), Identity(5)} {
		sorted, shuffled := NewBuilder(a.N, a.M), NewBuilder(a.N, a.M)
		var ks [][2]int
		for i := 0; i < a.N; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				sorted.Add(i, a.Cols[k], a.Vals[k])
				ks = append(ks, [2]int{i, k})
			}
		}
		r.Shuffle(len(ks), func(x, y int) { ks[x], ks[y] = ks[y], ks[x] })
		for _, ik := range ks {
			shuffled.Add(ik[0], a.Cols[ik[1]], a.Vals[ik[1]])
		}
		for _, got := range []*CSR{sorted.Build(), shuffled.Build()} {
			if !reflect.DeepEqual(got.RowPtr, a.RowPtr) || !reflect.DeepEqual(got.Cols, a.Cols) {
				t.Fatalf("pattern differs: %v %v, want %v %v", got.RowPtr, got.Cols, a.RowPtr, a.Cols)
			}
			for k, v := range got.Vals {
				if math.Float64bits(v) != math.Float64bits(a.Vals[k]) {
					t.Fatalf("value %d: %v, want %v", k, v, a.Vals[k])
				}
			}
		}
	}
}

// --- test helpers shared by the package ---

func randomCSR(r *rand.Rand, n, m int, density float64) *CSR {
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if r.Float64() < density {
				b.Add(i, j, r.NormFloat64())
			}
		}
	}
	return b.Build()
}

func randomVec(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func randomPermutation(r *rand.Rand, n int) []int {
	p := IdentityPermutation(n)
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// TestCheck: one row per invariant Check states, each a single edit of a
// sound matrix; the sound matrix and the empty ones pass.
func TestCheck(t *testing.T) {
	cases := []struct {
		name string
		edit func(a *CSR)
		want string // error substring; "" = passes
	}{
		{"sound", func(a *CSR) {}, ""},
		{"empty", func(a *CSR) { *a = *NewCSR(0, 0) }, ""},
		{"no entries", func(a *CSR) { *a = *NewCSR(3, 2) }, ""},
		{"negative rows", func(a *CSR) { a.N = -1 }, "negative dimensions"},
		{"negative columns", func(a *CSR) { a.M = -4 }, "negative dimensions"},
		{"short RowPtr", func(a *CSR) { a.RowPtr = a.RowPtr[:a.N] }, "offsets"},
		{"nil RowPtr", func(a *CSR) { a.RowPtr = nil }, "offsets"},
		{"rows beyond RowPtr", func(a *CSR) { a.N = 1 << 40 }, "offsets"},
		{"RowPtr starts late", func(a *CSR) { a.RowPtr[0] = 1 }, "offsets"},
		{"RowPtr ends early", func(a *CSR) { a.RowPtr[a.N]-- }, "RowPtr ends"},
		{"values shorter than columns", func(a *CSR) { a.Vals = a.Vals[:len(a.Vals)-1] }, "RowPtr ends"},
		{"RowPtr decreases", func(a *CSR) { a.RowPtr[2] = 1 }, "spans"},
		{"RowPtr overshoots", func(a *CSR) { a.RowPtr[1] = len(a.Cols) + 3 }, "spans"},
		{"negative column", func(a *CSR) { a.Cols[0] = -1 }, "out of range"},
		{"column past M", func(a *CSR) { a.Cols[len(a.Cols)-1] = a.M }, "out of range"},
		{"repeated column", func(a *CSR) { a.Cols[1] = a.Cols[0] }, "strictly increasing"},
		{"unsorted row", func(a *CSR) { a.Cols[2], a.Cols[3] = a.Cols[3], a.Cols[2] }, "strictly increasing"},
		{"NaN", func(a *CSR) { a.Vals[4] = math.NaN() }, "non-finite"},
		{"Inf", func(a *CSR) { a.Vals[0] = math.Inf(-1) }, "non-finite"},
	}
	for _, tc := range cases {
		a := testMatrix()
		tc.edit(a)
		err := a.Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
