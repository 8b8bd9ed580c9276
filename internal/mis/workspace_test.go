package mis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
)

// planOut is what one DistributedPlan call hands back.
type planOut struct {
	Sel             []bool
	NeedBy, ReqFrom [][]int
	GlobalActive    int
}

// runLevels drives the distributed MIS the way the interface phase of a
// factorization does, on P modelled T3D processors: level after level,
// each on the vertices the earlier ones left, with the adjacency changing
// underneath — a vertex that loses a neighbour to a level inherits that
// neighbour's remaining out-edges, as elimination fill would have it — and
// finally a few calls on a fixed vertex list under a shrinking active
// mask, the static schedule's shape. plan is called once per level per
// processor; what it returned is recorded per processor in call order.
func runLevels(adj0 [][]int, P int, plan func(ws *Workspace, p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, seed int64) ([]bool, *Exchange)) ([][]planOut, pcomm.Result) {
	n := len(adj0)
	owner := func(g int) int { return (g / 3) % P }
	// Shared between the processors, each writing only its own vertices'
	// entries and only between two barriers.
	cur := make([][]int, n)
	for v := range cur {
		cur[v] = append([]int(nil), adj0[v]...)
	}
	next := make([][]int, n)
	gone := make([]bool, n)
	outs := make([][]planOut, P)

	res := modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
		var ws Workspace
		record := func(sel []bool, ex *Exchange) {
			outs[p.ID()] = append(outs[p.ID()], planOut{sel, ex.NeedBy, ex.ReqFrom, ex.GlobalActive})
		}
		var owned []int
		for v := 0; v < n; v++ {
			if owner(v) == p.ID() {
				owned = append(owned, v)
			}
		}
		for level := 0; ; level++ {
			local := make([][]int, len(owned))
			for k, v := range owned {
				local[k] = cur[v]
			}
			sel, ex := plan(&ws, p, owned, local, nil, owner, 100+int64(level)*7919)
			record(sel, ex)
			if ex.GlobalActive == 0 {
				break
			}
			rest := owned[:0:0]
			for k, v := range owned {
				if sel[k] {
					gone[v] = true
				} else {
					rest = append(rest, v)
				}
			}
			owned = rest
			p.Barrier()
			for _, v := range owned {
				var out []int
				seen := map[int]bool{v: true}
				add := func(u int) {
					if !gone[u] && !seen[u] {
						seen[u] = true
						out = append(out, u)
					}
				}
				for _, u := range cur[v] {
					add(u)
					if gone[u] {
						for _, x := range cur[u] {
							add(x)
						}
					}
				}
				next[v] = out
			}
			p.Barrier()
			for _, v := range owned {
				cur[v] = next[v]
			}
			p.Barrier()
		}

		owned = owned[:0]
		for v := 0; v < n; v++ {
			if owner(v) == p.ID() {
				owned = append(owned, v)
			}
		}
		local := make([][]int, len(owned))
		active := make([]bool, len(owned))
		for k, v := range owned {
			local[k] = adj0[v]
			active[k] = v%4 != 0
		}
		for level := 0; level < 3; level++ {
			sel, ex := plan(&ws, p, owned, local, active, owner, 7+int64(level))
			record(sel, ex)
			for k := range sel {
				active[k] = active[k] && !sel[k]
			}
		}
	})
	return outs, res
}

// TestDistributedPlanWorkspaceReuse: one workspace across a run's calls,
// poisoned before each, against a fresh workspace per call — same masks,
// same exchange plans, same activity counts, and the same modelled run to
// the last bit of every processor's clock and counters.
func TestDistributedPlanWorkspaceReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	directed := make([][]int, 90)
	for v := range directed {
		for e := 0; e < 4; e++ {
			directed[v] = append(directed[v], r.Intn(len(directed))) // self-loops and repeats included
		}
	}
	graphs := map[string][][]int{
		"grid":     symAdj(graph.FromMatrix(matgen.Grid2D(11, 9))),
		"directed": directed,
	}
	fresh := func(_ *Workspace, p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, seed int64) ([]bool, *Exchange) {
		return DistributedPlan(p, owned, adj, active, owner, DefaultRounds, seed)
	}
	reused := func(ws *Workspace, p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, seed int64) ([]bool, *Exchange) {
		ws.Poison()
		return ws.Plan(p, owned, adj, active, owner, DefaultRounds, seed)
	}
	for name, adj := range graphs {
		for _, P := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p%d", name, P), func(t *testing.T) {
				want, wantRes := runLevels(adj, P, fresh)
				got, gotRes := runLevels(adj, P, reused)
				if len(want[0]) < 6 {
					t.Fatalf("only %d calls per processor: the fixture has no sequence to reuse across", len(want[0]))
				}
				for q := range want {
					if len(got[q]) != len(want[q]) {
						t.Fatalf("processor %d made %d calls, %d with fresh workspaces", q, len(got[q]), len(want[q]))
					}
					for c := range want[q] {
						if !reflect.DeepEqual(got[q][c], want[q][c]) {
							t.Fatalf("processor %d call %d:\nreused %+v\nfresh  %+v", q, c, got[q][c], want[q][c])
						}
					}
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("modelled runs differ:\nreused %+v\nfresh  %+v", gotRes, wantRes)
				}
			})
		}
	}
}

// TestWorkspacePoisonPanicsOnLiveID: Poison's clean check is live — an id
// the table still holds after Reset (here planted behind its back) trips it.
func TestWorkspacePoisonPanicsOnLiveID(t *testing.T) {
	var ws Workspace
	modelled.New(1, machine.Zero()).Run(func(p pcomm.Comm) {
		ws.Plan(p, []int{0, 1, 2}, [][]int{{1}, {2}, {0}}, nil, func(int) int { return 0 }, 0, 1)
	})
	ws.Poison() // clean: must not panic
	ws.slotOf[1] = 2
	defer func() {
		if recover() == nil {
			t.Fatal("Poison accepted a dirty id table")
		}
	}()
	ws.Poison()
}
