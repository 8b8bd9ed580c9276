package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func gridGraph(nx, ny int) *graph.Graph {
	return graph.FromMatrix(matgen.Grid2D(nx, ny))
}

// identity is the top-level vertex map KWay hands recursiveBisect.
func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestKWayBasicInvariants(t *testing.T) {
	g := gridGraph(20, 20)
	for _, k := range []int{1, 2, 3, 4, 8} {
		part := KWay(g, k, Options{Seed: 42})
		cut, weights, err := Validate(g, part, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Every part nonempty.
		for p, w := range weights {
			if w == 0 {
				t.Errorf("k=%d: part %d empty", k, p)
			}
		}
		if k == 1 && cut != 0 {
			t.Errorf("k=1 cut = %d, want 0", cut)
		}
	}
}

func TestKWayBalance(t *testing.T) {
	g := gridGraph(30, 30)
	for _, k := range []int{2, 4, 8, 16} {
		part := KWay(g, k, Options{Seed: 7})
		_, weights, err := Validate(g, part, k)
		if err != nil {
			t.Fatal(err)
		}
		target := float64(g.TotalVWgt()) / float64(k)
		for p, w := range weights {
			// Recursive bisection compounds tolerance; allow 1.30×.
			if float64(w) > 1.30*target {
				t.Errorf("k=%d part %d weight %d exceeds 1.3×target (%.1f)", k, p, w, target)
			}
		}
	}
}

func TestKWayBeatsRandomCut(t *testing.T) {
	g := gridGraph(32, 32)
	for _, k := range []int{2, 4, 8} {
		ml := KWay(g, k, Options{Seed: 3})
		rnd := RandomKWay(g, k, 3)
		mlCut := g.EdgeCut(ml)
		rndCut := g.EdgeCut(rnd)
		if mlCut*2 >= rndCut {
			t.Errorf("k=%d: multilevel cut %d not ≪ random cut %d", k, mlCut, rndCut)
		}
	}
}

func TestBisectionCutNearOptimalOnGrid(t *testing.T) {
	// Optimal bisection of an n×n grid cuts ~n edges. Allow 3×.
	n := 24
	g := gridGraph(n, n)
	part := KWay(g, 2, Options{Seed: 11})
	cut := g.EdgeCut(part)
	if cut > 3*n {
		t.Errorf("bisection cut %d, want ≤ %d for %d×%d grid", cut, 3*n, n, n)
	}
}

func TestKWayDeterministicForSeed(t *testing.T) {
	g := gridGraph(15, 15)
	p1 := KWay(g, 4, Options{Seed: 5})
	p2 := KWay(g, 4, Options{Seed: 5})
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestKWayIrregularGraph(t *testing.T) {
	a := matgen.RandomSPDPattern(400, 6, 99)
	g := graph.FromMatrix(a)
	part := KWay(g, 8, Options{Seed: 1})
	_, weights, err := Validate(g, part, 8)
	if err != nil {
		t.Fatal(err)
	}
	for p, w := range weights {
		if w == 0 {
			t.Errorf("part %d empty", p)
		}
	}
}

func TestKWayTorso(t *testing.T) {
	a := matgen.Torso(8, 8, 8, 1)
	g := graph.FromMatrix(a)
	part := KWay(g, 4, Options{Seed: 2})
	cut, _, err := Validate(g, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	rndCut := g.EdgeCut(RandomKWay(g, 4, 2))
	if cut >= rndCut {
		t.Errorf("multilevel cut %d no better than random %d on torso", cut, rndCut)
	}
}

func TestKWayNpartsExceedsVertices(t *testing.T) {
	g := gridGraph(2, 2) // 4 vertices
	part := KWay(g, 4, Options{Seed: 1})
	if _, weights, err := Validate(g, part, 4); err != nil {
		t.Fatal(err)
	} else {
		for p, w := range weights {
			if w != 1 {
				t.Errorf("part %d weight %d, want 1", p, w)
			}
		}
	}
	// More parts than vertices: recursive bisection reaches empty and
	// single-vertex subgraphs that still have parts to hand out. Every
	// vertex must land in a part of its own, in range.
	for _, k := range []int{5, 8, 16, 64} {
		part := KWay(g, k, Options{Seed: 1})
		_, weights, err := Validate(g, part, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for p, w := range weights {
			if w > 1 {
				t.Errorf("k=%d: part %d holds %d of the 4 vertices", k, p, w)
			}
		}
	}
	for _, n := range []int{0, 1} {
		small := graph.FromMatrix(sparse.Identity(n))
		if _, _, err := Validate(small, KWay(small, 3, Options{}), 3); err != nil {
			t.Errorf("%d-vertex graph: %v", n, err)
		}
	}
}

// parentCuts are the edge cuts of the last KWay whose FM passes drained
// the queue (commit aa1cf01), seeds 1–5. The bounded pass must stay within
// 2 % of them in the mean over the seeds of each row. (Single seeds
// scatter by ±5 % either way on both versions — over 30 seeds the two
// agree to 0.5 % — so rows, not cells, are the unit.)
var parentCuts = []struct {
	name string
	a    func() *sparse.CSR
	cuts map[int][5]int // k → cut at seeds 1–5
}{
	{"Torso20", func() *sparse.CSR { return matgen.Torso(20, 20, 20, 1) }, map[int][5]int{
		4: {800, 800, 800, 800, 800}, 16: {1969, 1951, 1946, 1942, 1951}}},
	{"Grid128", func() *sparse.CSR { return matgen.Grid2D(128, 128) }, map[int][5]int{
		4: {265, 256, 264, 256, 270}, 16: {785, 768, 825, 770, 768}}},
	{"Grid63x65", func() *sparse.CSR { return matgen.Grid2D(63, 65) }, map[int][5]int{
		4: {128, 128, 128, 129, 134}, 16: {398, 387, 389, 409, 396}}},
	{"Grid3D16", func() *sparse.CSR { return matgen.Grid3D(16, 16, 16) }, map[int][5]int{
		4: {535, 532, 512, 512, 520}, 16: {1310, 1307, 1292, 1280, 1293}}},
}

func TestKWayCutQualityVsExhaustiveFM(t *testing.T) {
	for _, c := range parentCuts {
		g := graph.FromMatrix(c.a())
		for k, cuts := range c.cuts {
			// Each bisection lets a side reach 0.5 + (ubfactor−1) of its
			// graph, so log2(k) of them compound to this much over target.
			maxWeight := float64(g.NVtx) / float64(k)
			for kk := k; kk > 1; kk /= 2 {
				maxWeight *= 1.10
			}
			got, want := 0, 0
			for i, parent := range cuts {
				part := KWay(g, k, Options{Seed: int64(i + 1)})
				cut, weights, err := Validate(g, part, k)
				if err != nil {
					t.Fatal(err)
				}
				got += cut
				want += parent
				for p, w := range weights {
					if float64(w) > maxWeight+1 {
						t.Errorf("%s k=%d seed=%d: part %d weighs %d, bound %.0f", c.name, k, i+1, p, w, maxWeight)
					}
				}
			}
			if float64(got) > 1.02*float64(want) {
				t.Errorf("%s k=%d: cut summed over seeds 1–5 is %d, more than 1.02 × %d", c.name, k, got, want)
			}
		}
	}
}

// A stack too small for the hierarchy spills to the heap and changes
// nothing else.
func TestKWaySpilledStackSamePartition(t *testing.T) {
	g := graph.FromMatrix(matgen.Torso(8, 8, 8, 1))
	want := KWay(g, 8, Options{Seed: 3})

	ws := newWorkspace(g)
	ws.stack = ws.stack[:3*g.NVtx]
	got := make([]int, g.NVtx)
	ws.recursiveBisect(g, identity(g.NVtx), 8, 0, got, rand.New(rand.NewSource(3)))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: part %d with a spilled stack, %d without", v, got[v], want[v])
		}
	}
}

func TestValidateErrors(t *testing.T) {
	g := gridGraph(3, 3)
	if _, _, err := Validate(g, []int{0}, 2); err == nil {
		t.Error("expected length error")
	}
	bad := make([]int, 9)
	bad[0] = 7
	if _, _, err := Validate(g, bad, 2); err == nil {
		t.Error("expected out-of-range part error")
	}
}

func TestGainHeap(t *testing.T) {
	h := &newWorkspace(gridGraph(3, 2)).heap
	h.set(1, 5)
	h.set(2, 9)
	h.set(3, 1)
	h.set(4, 9)
	h.set(5, 7)
	h.set(5, 0) // re-key downwards
	h.set(3, 8) // re-key upwards
	if h.n != 5 {
		t.Fatalf("heap holds %d entries, want 5 (re-keying must not duplicate)", h.n)
	}
	for i, want := range []int{9, 9, 8, 5, 0} {
		v, g := h.pop()
		if g != want {
			t.Fatalf("pop %d: gain %d, want %d", i, g, want)
		}
		if h.pos[v] != absent {
			t.Fatalf("pop %d: vertex %d still indexed", i, v)
		}
	}
	if h.n != 0 {
		t.Fatal("heap not empty")
	}
	h.set(0, 3)
	h.set(2, 4)
	h.reset()
	if h.n != 0 || h.pos[0] != absent || h.pos[2] != absent {
		t.Fatal("reset left entries behind")
	}
}

func TestSubgraphExtraction(t *testing.T) {
	g := gridGraph(4, 4)
	side := make([]int, 16)
	for v := 8; v < 16; v++ {
		side[v] = 1
	}
	sub, vmap := newWorkspace(g).subgraph(g, side, 0, identity(16))
	if sub.NVtx != 8 {
		t.Fatalf("subgraph NVtx = %d, want 8", sub.NVtx)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge count: the 2×4 block has 10 internal edges.
	if sub.NEdges() != 10 {
		t.Errorf("subgraph edges = %d, want 10", sub.NEdges())
	}
	for i, v := range vmap {
		if v != i {
			t.Errorf("vmap[%d] = %d, want %d", i, v, i)
		}
	}
}

// Property: KWay always produces a valid cover with nonempty parts when
// k ≤ number of vertices, for random connected-ish graphs.
func TestKWayValidCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := 20 + int(seed%60)
		a := matgen.RandomSPDPattern(n, 4, seed)
		g := graph.FromMatrix(a)
		k := 2 + int(seed%6)
		part := KWay(g, k, Options{Seed: seed + 1})
		_, weights, err := Validate(g, part, k)
		if err != nil {
			return false
		}
		for _, w := range weights {
			if w == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
