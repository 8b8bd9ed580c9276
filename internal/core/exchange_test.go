package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
	"repro/internal/pcomm/modelled"
	"repro/internal/pcomm/netcomm"
	"repro/internal/sparse"
)

// forEachZooCase runs f over the oracle's zoo: 6 generators × p ∈ {1, 2,
// 4, 8} × zooMethods, factored on the modelled machine.
func forEachZooCase(t *testing.T, f func(t *testing.T, plan *Plan, pcs []*ProcPrecond)) {
	for _, mat := range oracleZoo() {
		for _, P := range oracleProcs {
			for _, method := range zooMethods {
				t.Run(fmt.Sprintf("%s/p%d/%s", mat.name, P, method), func(t *testing.T) {
					pcs, plan, _ := factorOn(t, modelled.New(P, machine.T3D()), mat.a, oracleMethod(method))
					f(t, plan, pcs)
				})
			}
		}
	}
}

// levelOfStep inverts tri.madeAt.
func levelOfStep(t *tri, step int32, q int) int {
	if t.diag == nil {
		return int(step) - 1
	}
	return q - 1 - int(step)
}

// planRunner runs f on every processor of a fresh P-processor world of
// one backend, failing the test on a failed run.
type planRunner func(t *testing.T, P int, f func(p pcomm.Comm))

// planBackends are the worlds the exchange plans are checked on: the
// modelled and the shared-memory backend, and a two-node netcomm group
// inside this process, whose ranks are split between two nodes so that
// every message between the halves crosses a socket as a frame.
func planBackends(t *testing.T) map[string]planRunner {
	single := func(kind string) planRunner {
		return func(t *testing.T, P int, f func(p pcomm.Comm)) {
			w, err := backend.New(kind, P, machine.T3D())
			if err != nil {
				t.Fatal(err)
			}
			w.SetWatchdog(30 * time.Second)
			if _, err := pcomm.Guard(w, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	peers := []string{filepath.Join(dir, "p0.sock"), filepath.Join(dir, "p1.sock")}
	nodes := make([]*netcomm.Node, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i := range peers {
		wg.Add(1)
		go func(i int) { // rendezvous blocks until every node is up
			defer wg.Done()
			nodes[i], errs[i] = netcomm.NewNode(&netcomm.Spec{Raw: "exchange:" + dir, Listen: peers[i], Peers: peers, Self: i})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("netcomm node %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if err := nd.Close(); err != nil {
				t.Logf("closing netcomm node: %v", err)
			}
		}
	})
	group := func(t *testing.T, P int, f func(p pcomm.Comm)) {
		errs := make([]error, len(nodes))
		var wg sync.WaitGroup
		for i, nd := range nodes {
			w, err := nd.NewWorld(P)
			if err != nil {
				t.Fatal(err)
			}
			w.SetWatchdog(30 * time.Second)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = pcomm.Guard(w, f)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("netcomm node %d: %v", i, err)
			}
		}
	}
	return map[string]planRunner{backend.Modelled: single(backend.Modelled), backend.Real: single(backend.Real), "netcomm": group}
}

// levelPlanOf is one MIS call's plan as one processor saw it: the vertex
// list its slots index and a copy of the halo.
type levelPlanOf struct {
	verts []int
	halo  *pcomm.Halo
}

func copyHalo(h *pcomm.Halo) *pcomm.Halo {
	cp := func(ls []pcomm.Link) []pcomm.Link {
		out := make([]pcomm.Link, len(ls))
		for k, l := range ls {
			out[k] = pcomm.Link{Peer: l.Peer, IDs: slices.Clone(l.IDs), Slots: slices.Clone(l.Slots), Use: slices.Clone(l.Use)}
		}
		return out
	}
	return &pcomm.Halo{In: cp(h.In), Out: cp(h.Out)}
}

// checkHalos holds one exchange's plans, one per processor, to the halo
// contract: every processor's In and Out peers ascend and exclude itself,
// and for every (owner, reader) pair the owner's Out link and the reader's
// In link name the same ids in the same order — ownerID maps an owner's
// local slot to the id it holds — with the reader's slots distinct.
func checkHalos(t *testing.T, what string, hs []*pcomm.Halo, ownerID func(q int, s int32) int) {
	t.Helper()
	peersOK := func(ls []pcomm.Link, me int) bool {
		for k, l := range ls {
			if l.Peer == me || l.Peer < 0 || l.Peer >= len(hs) || k > 0 && l.Peer <= ls[k-1].Peer || len(l.Slots) == 0 {
				return false
			}
		}
		return true
	}
	linkTo := func(ls []pcomm.Link, peer int) *pcomm.Link {
		for k := range ls {
			if ls[k].Peer == peer {
				return &ls[k]
			}
		}
		return nil
	}
	for q, h := range hs {
		if !peersOK(h.In, q) || !peersOK(h.Out, q) {
			t.Fatalf("%s: proc %d: peers not ascending, empty or itself: in %v out %v", what, q, h.In, h.Out)
		}
		seen := map[int32]bool{}
		for _, in := range h.In {
			if len(in.IDs) != len(in.Slots) {
				t.Fatalf("%s: proc %d reads %d ids into %d slots of proc %d", what, q, len(in.IDs), len(in.Slots), in.Peer)
			}
			for _, s := range in.Slots {
				if seen[s] {
					t.Fatalf("%s: proc %d receives slot %d twice", what, q, s)
				}
				seen[s] = true
			}
			out := linkTo(hs[in.Peer].Out, q)
			if out == nil {
				t.Fatalf("%s: proc %d reads proc %d, which sends it nothing", what, q, in.Peer)
			}
			ids := make([]int, len(out.Slots))
			for k, s := range out.Slots {
				ids[k] = ownerID(in.Peer, s)
			}
			if !slices.Equal(ids, in.IDs) {
				t.Fatalf("%s: proc %d sends proc %d ids %v, which asked for %v", what, in.Peer, q, ids, in.IDs)
			}
		}
		for _, out := range h.Out {
			if linkTo(hs[out.Peer].In, q) == nil {
				t.Fatalf("%s: proc %d sends proc %d values it does not read", what, q, out.Peer)
			}
		}
	}
}

// TestExchangePlanInvariants checks every neighbour-exchange plan of every
// zoo case, factored afresh on the modelled backend, the shared-memory
// backend and a two-node netcomm group:
//
//   - the MIS plan of every level and the matrix–vector product's ghost
//     plan satisfy the halo contract (checkHalos), and the products' reads
//     are exactly their ghosts;
//   - each sweep's (src, dst) send list and receive list agree in count,
//     and message by message in the ids they carry, in order; every L
//     message leaves at a level strictly below the receiver's first use
//     and every U message at a level strictly above it; the receives fill
//     every ghost slot exactly once; p = 1 sends nothing; and checkWire and
//     CheckExchange accept the pieces the factorization produced.
func TestExchangePlanInvariants(t *testing.T) {
	backends := planBackends(t)
	for _, mat := range oracleZoo() {
		for _, P := range oracleProcs {
			for _, method := range zooMethods {
				t.Run(fmt.Sprintf("%s/p%d/%s", mat.name, P, method), func(t *testing.T) {
					for _, kind := range []string{backend.Modelled, backend.Real, "netcomm"} {
						t.Run(kind, func(t *testing.T) { checkExchangePlans(t, backends[kind], mat.a, P, method) })
					}
				})
			}
		}
	}
}

// TestRefactorOnReboundPlanPassesCheckExchange: the pieces of a Refactor
// through a reused analysis — the plan a symbolic-tier hit binds to new
// values — fit together as the solves' exchange plan needs them to, on
// the zoo at p ∈ {1, 2, 4, 8} for every method Refactor runs.
func TestRefactorOnReboundPlanPassesCheckExchange(t *testing.T) {
	for _, mat := range oracleZoo() {
		for _, P := range oracleProcs {
			t.Run(fmt.Sprintf("%s/p%d", mat.name, P), func(t *testing.T) {
				plan := mustPrepare(t, mat.a, P, 17) // the oracle's layout
				sym, err := Analyze(mat.a, plan.Lay)
				if err != nil {
					t.Fatal(err)
				}
				rebound, err := sym.Bind(matgen.Evolve(mat.a, 1, 2e-2, 11)[0])
				if err != nil {
					t.Fatal(err)
				}
				for _, method := range []string{"ilut", "ilutstar"} {
					pcs := make([]*ProcPrecond, P)
					modelled.New(P, machine.T3D()).Run(func(p pcomm.Comm) {
						pcs[p.ID()] = oracleMethod(method)(p, rebound)
					})
					if err := CheckExchange(pcs); err != nil {
						t.Errorf("%s: CheckExchange rejects the pieces of a Refactor on a rebound plan: %v", method, err)
					}
				}
			})
		}
	}
}

func checkExchangePlans(t *testing.T, run planRunner, a *sparse.CSR, P int, method string) {
	plan := mustPrepare(t, a, P, 17) // the oracle's partition and plan
	lay := plan.Lay
	pcs := make([]*ProcPrecond, P)
	levels := make([][]levelPlanOf, P)
	matvec := make([]*pcomm.Halo, P)
	levelHook = func(p pcomm.Comm, verts []int, h *pcomm.Halo) {
		levels[p.ID()] = append(levels[p.ID()], levelPlanOf{slices.Clone(verts), copyHalo(h)})
	}
	defer func() { levelHook = nil }()
	run(t, P, func(p pcomm.Comm) {
		pcs[p.ID()] = oracleMethod(method)(p, plan)
		matvec[p.ID()] = copyHalo(dist.NewMatrix(p, lay, plan.A).Halo())
	})

	checkHalos(t, "matvec", matvec, func(q int, s int32) int { return lay.Rows[q][s] })
	for q, h := range matvec {
		var ghosts []int
		for _, g := range lay.Rows[q] {
			cols, _ := plan.A.Row(g)
			for _, j := range cols {
				if lay.PartOf[j] != q && !slices.Contains(ghosts, j) {
					ghosts = append(ghosts, j)
				}
			}
		}
		var ids []int
		for _, l := range h.In {
			ids = append(ids, l.IDs...)
		}
		slices.SortFunc(ghosts, func(i, j int) int { return cmp.Or(lay.PartOf[i]-lay.PartOf[j], i-j) })
		if !slices.Equal(ids, ghosts) || len(ghosts) > 0 && len(ghosts) != int(1+slices.Max(h.In[len(h.In)-1].Slots)) {
			t.Fatalf("matvec: proc %d fetches %v, its rows read %v (by owner)", q, ids, ghosts)
		}
	}
	for l := range levels[0] {
		hs := make([]*pcomm.Halo, P)
		for q := range levels {
			if len(levels[q]) != len(levels[0]) {
				t.Fatalf("MIS: proc %d made %d calls, proc 0 %d", q, len(levels[q]), len(levels[0]))
			}
			hs[q] = levels[q][l].halo
		}
		checkHalos(t, fmt.Sprintf("MIS call %d", l), hs, func(q int, s int32) int { return levels[q][l].verts[s] })
	}

	q := pcs[0].NumLevels()
	for me, pc := range pcs {
		w := pc.Wire()
		if err := checkWire(plan, &w); err != nil {
			t.Fatalf("proc %d: checkWire rejects a factored piece: %v", me, err)
		}
		if !pc.wired {
			t.Fatalf("proc %d: factor did not build the exchange plan", me)
		}
	}
	if err := CheckExchange(pcs); err != nil {
		t.Fatalf("CheckExchange rejects the pieces of one factorization: %v", err)
	}
	sweeps := func(pc *ProcPrecond) [2]*tri { return [2]*tri{&pc.fwd, &pc.bwd} }
	for d, name := range []string{"L", "U"} {
		for dst, pc := range pcs {
			t2 := sweeps(pc)[d]
			filled := make([]int, len(t2.ghost))
			for _, m := range t2.recv {
				for _, s := range m.slots {
					filled[int(s)-len(pc.owned)]++
				}
			}
			for k, c := range filled {
				if c != 1 {
					t.Fatalf("%s: proc %d: ghost %d (unknown %d) is filled %d times", name, dst, k, t2.ghost[k], c)
				}
			}
			if P == 1 && len(t2.send)+len(t2.recv) != 0 {
				t.Fatalf("%s: p = 1 plans %d sends and %d receives", name, len(t2.send), len(t2.recv))
			}
		}
		for src := 0; src < P; src++ {
			for dst := 0; dst < P; dst++ {
				var sends, recvs []xmsg
				for _, m := range sweeps(pcs[src])[d].send {
					if int(m.peer) == dst {
						sends = append(sends, m)
					}
				}
				for _, m := range sweeps(pcs[dst])[d].recv {
					if int(m.peer) == src {
						recvs = append(recvs, m)
					}
				}
				if src == dst && len(sends)+len(recvs) != 0 {
					t.Fatalf("%s: proc %d exchanges with itself", name, src)
				}
				if len(sends) != len(recvs) {
					t.Fatalf("%s: %d→%d: %d sends but %d receives", name, src, dst, len(sends), len(recvs))
				}
				ts, tr := sweeps(pcs[src])[d], sweeps(pcs[dst])[d]
				for i := range sends {
					if len(sends[i].slots) != len(recvs[i].slots) || len(sends[i].slots) == 0 {
						t.Fatalf("%s: %d→%d message %d: %d values sent, %d expected", name, src, dst, i, len(sends[i].slots), len(recvs[i].slots))
					}
					for k, s := range sends[i].slots {
						sent, read := pcs[src].newOf[ts.row[s]], tr.ghost[int(recvs[i].slots[k])-len(pcs[dst].owned)]
						if sent != read {
							t.Fatalf("%s: %d→%d message %d value %d: unknown %d sent, %d expected", name, src, dst, i, k, sent, read)
						}
					}
					sentAt, usedAt := levelOfStep(ts, sends[i].step, q), levelOfStep(ts, recvs[i].step, q)
					if d == 0 && !(sentAt < usedAt) || d == 1 && !(sentAt > usedAt) {
						t.Fatalf("%s: %d→%d message %d leaves at level %d, first used at level %d", name, src, dst, i, sentAt, usedAt)
					}
					if i > 0 && !(sends[i-1].step < sends[i].step && recvs[i-1].step < recvs[i].step) {
						t.Fatalf("%s: %d→%d messages %d and %d are not in step order on both ends", name, src, dst, i-1, i)
					}
				}
			}
		}
	}
}

// applyTwice returns what Solve gives for the oracle's right-hand side 0
// on a fresh world of the given kind, applied twice so that a piece whose
// plan is built on first use is also exercised once the plan exists.
func applyTwice(t *testing.T, kind string, lay *dist.Layout, pcs []*ProcPrecond) [][]float64 {
	t.Helper()
	w, err := backend.New(kind, lay.P, machine.T3D())
	if err != nil {
		t.Fatal(err)
	}
	w.SetWatchdog(30 * time.Second)
	rhs := lay.Scatter(oracleRHS(lay.N, 0))
	out := make([][]float64, lay.P)
	w.Run(func(p pcomm.Comm) {
		me := p.ID()
		y := make([]float64, lay.NLocal(me))
		pcs[me].Solve(p, y, rhs[me])
		pcs[me].Solve(p, y, rhs[me])
		out[me] = y
	})
	return out
}

func bitsEqual(a, b [][]float64) bool {
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return false
		}
		for i := range a[q] {
			if math.Float64bits(a[q][i]) != math.Float64bits(b[q][i]) {
				return false
			}
		}
	}
	return true
}

// TestSolveFromWireBitIdentical: pieces rebuilt from Wire() — flat layout
// re-derived, exchange plan built on their first application — solve bit
// for bit like the originals, on the modelled and the real backend.
func TestSolveFromWireBitIdentical(t *testing.T) {
	forEachZooCase(t, func(t *testing.T, plan *Plan, pcs []*ProcPrecond) {
		want := applyTwice(t, backend.Modelled, plan.Lay, pcs)
		for _, kind := range []string{backend.Modelled, backend.Real} {
			rebuilt := make([]*ProcPrecond, len(pcs))
			for q, pc := range pcs {
				rp, err := FromWire(plan, pc.Wire())
				if err != nil {
					t.Fatalf("proc %d: FromWire(Wire()): %v", q, err)
				}
				if rp.wired {
					t.Fatalf("proc %d: FromWire built an exchange plan without a run", q)
				}
				rebuilt[q] = rp
			}
			if got := applyTwice(t, kind, plan.Lay, rebuilt); !bitsEqual(want, got) {
				t.Fatalf("%s: Solve on FromWire(Wire()) pieces differs from the originals", kind)
			}
			if got := applyTwice(t, kind, plan.Lay, pcs); !bitsEqual(want, got) {
				t.Fatalf("%s: Solve on the original pieces differs from the modelled run", kind)
			}
			for q, rp := range rebuilt {
				if !reflect.DeepEqual(rp.fwd, pcs[q].fwd) || !reflect.DeepEqual(rp.bwd, pcs[q].bwd) {
					t.Fatalf("%s: proc %d: the layout and plan derived from the wire differ from the factorization's", kind, q)
				}
			}
		}
	})
}

// TestSolveRunAheadUnderDelays: three back-to-back applications with a
// matrix–vector product between them, each rank delayed at random points
// (the chaos lane's delay-only spec), give the bits of an undelayed run. A
// fast rank already in application k+1 queues behind its own earlier
// messages and cannot disturb a slow rank still in k.
func TestSolveRunAheadUnderDelays(t *testing.T) {
	forEachZooCase(t, func(t *testing.T, plan *Plan, pcs []*ProcPrecond) {
		lay := plan.Lay
		rhs := lay.Scatter(oracleRHS(lay.N, 1))
		run := func(kind, faults string) [][]float64 {
			w, err := backend.New(kind, lay.P, machine.T3D())
			if err != nil {
				t.Fatal(err)
			}
			spec, err := fault.Parse(faults)
			if err != nil {
				t.Fatal(err)
			}
			w = spec.World(w)
			w.SetWatchdog(30 * time.Second)
			out := make([][]float64, lay.P)
			w.Run(func(p pcomm.Comm) {
				me := p.ID()
				dm := dist.NewMatrix(p, lay, plan.A)
				x := append([]float64(nil), rhs[me]...)
				y := make([]float64, len(x))
				for k := 0; k < 3; k++ {
					pcs[me].Solve(p, y, x)
					dm.MulVec(p, x, y)
				}
				out[me] = x
			})
			return out
		}
		want := run(backend.Modelled, "")
		for _, kind := range []string{backend.Modelled, backend.Real} {
			if got := run(kind, "seed=7,delay=0.05@1e-6"); !bitsEqual(want, got) {
				t.Fatalf("%s: delayed ranks changed the result of three back-to-back applications", kind)
			}
		}
	})
}

// TestDroppedSweepMessageTripsWatchdog: swallowing a sweep message leaves
// its receiver waiting at the step that needs it; the watchdog turns that
// into a DeadlockError whose dump names the (src, tag) of the missing
// message, as for a dropped ghost message. The dropped message is the
// last one its sender posts: an earlier loss is caught sooner, when the
// receiver matches the sender's next message instead and finds the wrong
// length.
func TestDroppedSweepMessageTripsWatchdog(t *testing.T) {
	zoo := oracleZoo()[0]
	pcs, plan, _ := factorOn(t, modelled.New(4, machine.T3D()), zoo.a, oracleMethod("ilut"))
	src := -1
	for q, pc := range pcs {
		if len(pc.bwd.send) > 0 {
			src = q
			break
		}
	}
	if src < 0 {
		t.Fatal("no rank sends in the backward sweep")
	}
	last := pcs[src].bwd.send[len(pcs[src].bwd.send)-1]
	dst, nth := int(last.peer), len(pcs[src].fwd.send)+len(pcs[src].bwd.send)
	for _, kind := range []string{backend.Modelled, backend.Real} {
		spec, err := fault.Parse(fmt.Sprintf("seed=1,drop=%d@%d", src, nth))
		if err != nil {
			t.Fatal(err)
		}
		w, err := backend.New(kind, 4, machine.T3D())
		if err != nil {
			t.Fatal(err)
		}
		w = spec.World(w)
		w.SetWatchdog(500 * time.Millisecond)
		rhs := plan.Lay.Scatter(oracleRHS(plan.Lay.N, 0))
		_, runErr := pcomm.Guard(w, func(p pcomm.Comm) {
			y := make([]float64, plan.Lay.NLocal(p.ID()))
			pcs[p.ID()].Solve(p, y, rhs[p.ID()])
			p.Barrier()
		})
		var de *pcomm.DeadlockError
		if !errors.As(runErr, &de) {
			t.Fatalf("%s: dropped sweep message ended in %v, want a DeadlockError", kind, runErr)
		}
		want := fmt.Sprintf("blocked in Recv(src=%d, tag=%d)", src, tagSolveBackward)
		if !strings.Contains(de.Dump, want) {
			t.Errorf("%s: dump does not show rank %d %s:\n%s", kind, dst, want, de.Dump)
		}
	}
}
