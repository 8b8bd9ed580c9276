package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestFromMatrixGrid(t *testing.T) {
	a := matgen.Grid2D(3, 3)
	g := FromMatrix(a)
	if g.NVtx != 9 {
		t.Fatalf("NVtx = %d, want 9", g.NVtx)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corner has degree 2, edge 3, centre 4.
	if got := len(g.Neighbors(0)); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if got := len(g.Neighbors(4)); got != 4 {
		t.Errorf("centre degree = %d, want 4", got)
	}
	if got := g.NEdges(); got != 12 {
		t.Errorf("NEdges = %d, want 12", got)
	}
}

func TestFromMatrixNonsymmetric(t *testing.T) {
	// a_01 stored but a_10 not: the graph must still contain edge {0,1}.
	a := sparse.FromDense([][]float64{
		{1, 5, 0},
		{0, 1, 0},
		{0, 0, 1},
	})
	g := FromMatrix(a)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Neighbors(0)) != 1 || len(g.Neighbors(1)) != 1 {
		t.Fatalf("degrees = %d,%d, want 1,1", len(g.Neighbors(0)), len(g.Neighbors(1)))
	}
	if g.Neighbors(1)[0] != 0 {
		t.Fatal("edge {0,1} missing its reverse")
	}
}

// naiveFromMatrix is the reference FromMatrix is held to: collect every
// off-diagonal (i, j) and (j, i) in a set per vertex, then sort.
func naiveFromMatrix(a *sparse.CSR) *Graph {
	nbr := make([]map[int]bool, a.N)
	for i := range nbr {
		nbr[i] = map[int]bool{}
	}
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j != i {
				nbr[i][j] = true
				nbr[j][i] = true
			}
		}
	}
	g := &Graph{NVtx: a.N, Xadj: make([]int, a.N+1), Adj: []int{}, AdjWgt: []int{}, VWgt: make([]int, a.N)}
	for i, set := range nbr {
		row := make([]int, 0, len(set))
		for j := range set {
			row = append(row, j)
		}
		sort.Ints(row)
		g.Adj = append(g.Adj, row...)
		g.Xadj[i+1] = len(g.Adj)
		g.VWgt[i] = 1
	}
	for range g.Adj {
		g.AdjWgt = append(g.AdjWgt, 1)
	}
	return g
}

func TestFromMatrixMatchesNaiveReference(t *testing.T) {
	// Empty rows (2, 5), diagonal-only rows (1, 4), one-directional
	// entries (0→3, 3→6, 6→0), a mutual pair (0↔7) and a missing diagonal
	// (row 7).
	b := sparse.NewBuilder(8, 8)
	for _, e := range [][2]int{{0, 0}, {0, 3}, {0, 7}, {1, 1}, {3, 3}, {3, 6}, {4, 4}, {6, 0}, {6, 6}, {7, 0}} {
		b.Add(e[0], e[1], 1)
	}
	r := rand.New(rand.NewSource(9))
	unsym := sparse.NewBuilder(300, 300)
	for k := 0; k < 1500; k++ {
		unsym.Add(r.Intn(300), r.Intn(300), 1)
	}
	for name, a := range map[string]*sparse.CSR{
		"handmade":   b.Build(),
		"random":     unsym.Build(),
		"convdiff":   matgen.ConvDiff2D(20, 23, 10, 20),
		"randomspd":  matgen.RandomSPDPattern(500, 7, 4),
		"grid2d":     matgen.Grid2D(37, 41),
		"grid3d":     matgen.Grid3D(9, 10, 11),
		"torso":      matgen.Torso(12, 12, 12, 3),
		"anisotropy": matgen.Anisotropic2D(17, 19, 0.01),
		"empty":      sparse.NewCSR(5, 5),
		"zero":       sparse.NewCSR(0, 0),
	} {
		g := FromMatrix(a)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if want := naiveFromMatrix(a); !reflect.DeepEqual(g, want) {
			t.Errorf("%s: FromMatrix differs from the naive reference", name)
		}
	}
}

// FromMatrix makes the graph's five allocations plus two for the pattern
// of Aᵀ, whatever the size of the matrix.
func TestFromMatrixAllocCount(t *testing.T) {
	a := matgen.Torso(12, 12, 12, 1)
	if n := testing.AllocsPerRun(5, func() { FromMatrix(a) }); n > 7 {
		t.Errorf("FromMatrix made %v allocations, want ≤ 7", n)
	}
}

var benchGraph *Graph

func BenchmarkFromMatrix(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"Torso20", matgen.Torso(20, 20, 20, 1)},
		{"Grid128", matgen.Grid2D(128, 128)},
		{"ConvDiff128", matgen.ConvDiff2D(128, 128, 10, 20)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = FromMatrix(c.a)
			}
		})
	}
}

func TestNoSelfLoops(t *testing.T) {
	a := matgen.Grid2D(4, 4) // has diagonal entries
	g := FromMatrix(a)
	for v := 0; v < g.NVtx; v++ {
		for _, u := range g.Neighbors(v) {
			if u == v {
				t.Fatalf("self loop at %d", v)
			}
		}
	}
}

func TestEdgeCutAndBoundary(t *testing.T) {
	// 2×4 grid, split between columns 1 and 2 (vertex = i*4+j).
	a := matgen.Grid2D(2, 4)
	g := FromMatrix(a)
	part := []int{0, 0, 1, 1, 0, 0, 1, 1}
	if got := g.EdgeCut(part); got != 2 {
		t.Errorf("EdgeCut = %d, want 2", got)
	}
	b := g.Boundary(part)
	wantBoundary := map[int]bool{1: true, 2: true, 5: true, 6: true}
	for v, isB := range b {
		if isB != wantBoundary[v] {
			t.Errorf("Boundary[%d] = %v, want %v", v, isB, wantBoundary[v])
		}
	}
}

func TestPartWeights(t *testing.T) {
	a := matgen.Grid2D(2, 2)
	g := FromMatrix(a)
	w := g.PartWeights([]int{0, 1, 1, 1}, 2)
	if w[0] != 1 || w[1] != 3 {
		t.Errorf("PartWeights = %v, want [1 3]", w)
	}
}

// Property: EdgeCut is invariant under part-label swaps and equals a
// brute-force count.
func TestEdgeCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		a := matgen.RandomSPDPattern(n, 4, seed)
		g := FromMatrix(a)
		part := make([]int, n)
		for i := range part {
			part[i] = r.Intn(3)
		}
		got := g.EdgeCut(part)
		// Brute force over unordered vertex pairs.
		want := 0
		seen := map[[2]int]bool{}
		for v := 0; v < n; v++ {
			adj := g.Neighbors(v)
			wgt := g.EdgeWeights(v)
			for k, u := range adj {
				key := [2]int{min(u, v), max(u, v)}
				if seen[key] {
					continue
				}
				seen[key] = true
				if part[u] != part[v] {
					want += wgt[k]
				}
			}
		}
		// Swap labels 0 and 1: cut unchanged.
		swapped := make([]int, n)
		for i, p := range part {
			switch p {
			case 0:
				swapped[i] = 1
			case 1:
				swapped[i] = 0
			default:
				swapped[i] = p
			}
		}
		return got == want && g.EdgeCut(swapped) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
