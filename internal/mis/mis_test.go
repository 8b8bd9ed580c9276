package mis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
)

// symAdj builds symmetric adjacency lists from a graph.
func symAdj(g *graph.Graph) [][]int {
	adj := make([][]int, g.NVtx)
	for v := 0; v < g.NVtx; v++ {
		adj[v] = append([]int(nil), g.Neighbors(v)...)
	}
	return adj
}

func countSel(sel []bool) int {
	n := 0
	for _, s := range sel {
		if s {
			n++
		}
	}
	return n
}

func TestSerialIndependentOnGrid(t *testing.T) {
	g := graph.FromMatrix(matgen.Grid2D(10, 10))
	adj := symAdj(g)
	sel := Serial(adj, nil, DefaultRounds, 1)
	if err := VerifyIndependent(adj, sel); err != nil {
		t.Fatal(err)
	}
	if countSel(sel) == 0 {
		t.Fatal("empty independent set")
	}
}

func TestSerialNonemptyGuarantee(t *testing.T) {
	// Even a single round on a clique selects exactly one vertex.
	n := 12
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if u != v {
				adj[v] = append(adj[v], u)
			}
		}
	}
	sel := Serial(adj, nil, 1, 7)
	if got := countSel(sel); got != 1 {
		t.Fatalf("clique MIS size = %d, want 1", got)
	}
	if err := VerifyIndependent(adj, sel); err != nil {
		t.Fatal(err)
	}
}

func TestSerialRespectsActiveMask(t *testing.T) {
	g := graph.FromMatrix(matgen.Grid2D(6, 6))
	adj := symAdj(g)
	active := make([]bool, g.NVtx)
	for v := 0; v < g.NVtx; v += 2 {
		active[v] = true
	}
	sel := Serial(adj, active, DefaultRounds, 3)
	for v, s := range sel {
		if s && !active[v] {
			t.Fatalf("inactive vertex %d selected", v)
		}
	}
	if countSel(sel) == 0 {
		t.Fatal("no active vertex selected")
	}
}

func TestSerialDirectedTwoStep(t *testing.T) {
	// The paper's example: a directed edge (u,v) with keys such that both
	// would join under naive Luby. The two-step rule must keep the set
	// independent regardless of seed.
	adj := [][]int{
		1: {0}, // edge 1→0 only
		0: {},
		2: {},
	}
	adj = [][]int{{}, {0}, {}}
	for seed := int64(0); seed < 50; seed++ {
		sel := Serial(adj, nil, DefaultRounds, seed)
		if sel[0] && sel[1] {
			t.Fatalf("seed %d: both endpoints of directed edge selected", seed)
		}
		if !sel[2] {
			t.Fatalf("seed %d: isolated vertex not selected", seed)
		}
	}
}

func TestSerialDirectedCycles(t *testing.T) {
	// Directed 3-cycle plus chords; must stay independent for any seed.
	adj := [][]int{{1}, {2}, {0}, {0, 1}}
	for seed := int64(0); seed < 30; seed++ {
		sel := Serial(adj, nil, DefaultRounds, seed)
		if err := VerifyIndependent(adj, sel); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if countSel(sel) == 0 {
			t.Fatalf("seed %d: empty set", seed)
		}
	}
}

func TestSerialFiveRoundsNearMaximal(t *testing.T) {
	g := graph.FromMatrix(matgen.Grid2D(20, 20))
	adj := symAdj(g)
	sel := Serial(adj, nil, DefaultRounds, 5)
	if !Maximal(adj, nil, sel) {
		// Five rounds may be short of maximal, but on a grid the gap
		// should be tiny: measure it.
		uncovered := 0
		covered := make([]bool, len(adj))
		for v := range adj {
			if sel[v] {
				covered[v] = true
				for _, u := range adj[v] {
					covered[u] = true
				}
			}
		}
		for v := range adj {
			if !covered[v] {
				uncovered++
			}
		}
		if uncovered > len(adj)/20 {
			t.Errorf("5 rounds left %d/%d vertices uncovered", uncovered, len(adj))
		}
	}
}

func TestVerifyIndependentDetectsViolation(t *testing.T) {
	adj := [][]int{{1}, {0}}
	if err := VerifyIndependent(adj, []bool{true, true}); err == nil {
		t.Fatal("violation not detected")
	}
}

// Property: independence holds for random directed graphs over many seeds.
func TestSerialIndependenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		adj := make([][]int, n)
		for v := 0; v < n; v++ {
			for e := 0; e < r.Intn(5); e++ {
				u := r.Intn(n)
				if u != v {
					adj[v] = append(adj[v], u)
				}
			}
		}
		sel := Serial(adj, nil, DefaultRounds, seed)
		if VerifyIndependent(adj, sel) != nil {
			return false
		}
		return countSel(sel) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- distributed -------------------------------------------------------

// distribute rows of a grid graph round-robin across P procs and run the
// distributed MIS; verify against the global structure.
func runDistributed(t *testing.T, adj [][]int, P, rounds int, seed int64) []bool {
	t.Helper()
	n := len(adj)
	ownerOf := func(g int) int { return g % P }
	globalSel := make([]bool, n)
	m := pcommtest.New(t, P, machine.T3D())
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	m.Run(func(p pcomm.Comm) {
		var owned []int
		var localAdj [][]int
		for v := 0; v < n; v++ {
			if ownerOf(v) == p.ID() {
				owned = append(owned, v)
				localAdj = append(localAdj, adj[v])
			}
		}
		sel, _ := new(Workspace).Plan(p, owned, localAdj, nil, ownerOf, rounds, seed)
		<-mu
		for i, g := range owned {
			globalSel[g] = sel[i]
		}
		mu <- struct{}{}
	})
	return globalSel
}

func TestDistributedMatchesIndependence(t *testing.T) {
	g := graph.FromMatrix(matgen.Grid2D(12, 12))
	adj := symAdj(g)
	for _, P := range []int{1, 2, 4, 7} {
		sel := runDistributed(t, adj, P, DefaultRounds, 9)
		if err := VerifyIndependent(adj, sel); err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if countSel(sel) == 0 {
			t.Fatalf("P=%d: empty set", P)
		}
	}
}

func TestDistributedEqualsSerial(t *testing.T) {
	// The distributed algorithm with deterministic keys must select
	// exactly the serial result, regardless of P.
	g := graph.FromMatrix(matgen.Grid2D(9, 11))
	adj := symAdj(g)
	want := Serial(adj, nil, DefaultRounds, 13)
	for _, P := range []int{2, 3, 8} {
		got := runDistributed(t, adj, P, DefaultRounds, 13)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("P=%d: vertex %d: distributed %v, serial %v", P, v, got[v], want[v])
			}
		}
	}
}

func TestDistributedDirected(t *testing.T) {
	// Random directed graph: distributed two-step must stay independent.
	r := rand.New(rand.NewSource(2))
	n := 60
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		for e := 0; e < 3; e++ {
			u := r.Intn(n)
			if u != v {
				adj[v] = append(adj[v], u)
			}
		}
	}
	sel := runDistributed(t, adj, 5, DefaultRounds, 31)
	if err := VerifyIndependent(adj, sel); err != nil {
		t.Fatal(err)
	}
	if countSel(sel) == 0 {
		t.Fatal("empty set")
	}
	// And must match serial.
	want := Serial(adj, nil, DefaultRounds, 31)
	for v := range want {
		if sel[v] != want[v] {
			t.Fatalf("vertex %d differs from serial", v)
		}
	}
}

func TestDistributedActiveMask(t *testing.T) {
	g := graph.FromMatrix(matgen.Grid2D(8, 8))
	adj := symAdj(g)
	n := len(adj)
	P := 4
	ownerOf := func(gid int) int { return gid % P }
	globalSel := make([]bool, n)
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	m := pcommtest.New(t, P, machine.Zero())
	m.Run(func(p pcomm.Comm) {
		var owned []int
		var localAdj [][]int
		var act []bool
		for v := 0; v < n; v++ {
			if ownerOf(v) == p.ID() {
				owned = append(owned, v)
				localAdj = append(localAdj, adj[v])
				act = append(act, v < n/2)
			}
		}
		sel, _ := new(Workspace).Plan(p, owned, localAdj, act, ownerOf, DefaultRounds, 4)
		<-gate
		for i, g := range owned {
			globalSel[g] = sel[i]
		}
		gate <- struct{}{}
	})
	for v := n / 2; v < n; v++ {
		if globalSel[v] {
			t.Fatalf("inactive vertex %d selected", v)
		}
	}
	if countSel(globalSel) == 0 {
		t.Fatal("no active vertex selected")
	}
}
