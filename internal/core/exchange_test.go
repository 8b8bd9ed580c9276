package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/backend"
)

// forEachZooCase runs f over the oracle's zoo: 6 generators × p ∈ {1, 2,
// 4, 8} × ILUT / ILUT* / Schur / ILU(0), factored on the modelled machine.
func forEachZooCase(t *testing.T, f func(t *testing.T, plan *Plan, pcs []*ProcPrecond)) {
	for _, mat := range oracleZoo() {
		for _, P := range oracleProcs {
			for _, method := range oracleMethods {
				t.Run(fmt.Sprintf("%s/p%d/%s", mat.name, P, method), func(t *testing.T) {
					plan, pcs, _ := oracleFactor(t, mat.a, P, method)
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

// TestExchangePlanInvariants checks the derived plan of every zoo case:
// each (src, dst) pair's send list and receive list agree in count and
// length; every L message leaves at a level strictly below the receiver's
// first use and every U message at a level strictly above it; the
// receives fill every ghost slot exactly once; p = 1 sends nothing; and
// checkWire accepts every piece the factorization produced.
func TestExchangePlanInvariants(t *testing.T) {
	forEachZooCase(t, func(t *testing.T, plan *Plan, pcs []*ProcPrecond) {
		P, q := len(pcs), pcs[0].NumLevels()
		for me, pc := range pcs {
			w := pc.Wire()
			if err := checkWire(plan, &w); err != nil {
				t.Fatalf("proc %d: checkWire rejects a factored piece: %v", me, err)
			}
			if !pc.wired {
				t.Fatalf("proc %d: factor did not build the exchange plan", me)
			}
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
					for i := range sends {
						if len(sends[i].slots) != len(recvs[i].slots) || len(sends[i].slots) == 0 {
							t.Fatalf("%s: %d→%d message %d: %d values sent, %d expected", name, src, dst, i, len(sends[i].slots), len(recvs[i].slots))
						}
						tr := sweeps(pcs[src])[d]
						sentAt, usedAt := levelOfStep(tr, sends[i].step, q), levelOfStep(tr, recvs[i].step, q)
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
	})
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
	plan, pcs, _ := oracleFactor(t, zoo.a, 4, "ilut")
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
