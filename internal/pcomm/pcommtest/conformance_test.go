package pcommtest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/pcomm/netcomm"
	"repro/internal/pcomm/realcomm"
	"repro/internal/trace"
)

// Conformance is the contract every pcomm.World backend must meet,
// written once against the interface: matching order, payload forms,
// rank-order folds, failure reports, lifecycle panics and counters.
// Exact counter and fold expectations make "equal across backends" a
// consequence of each backend passing. Backend-specific behaviour
// (virtual-clock arithmetic, sockets, process spawning) is tested beside
// the backend. name is the backend's: the Backend of its failures.
func Conformance(t *testing.T, name string, newWorld func(p int) pcomm.World) {
	// run executes f under a watchdog long enough never to fire on a
	// healthy run, so a hang fails the subtest instead of the binary.
	run := func(t *testing.T, p int, f func(pcomm.Comm)) (pcomm.Result, error) {
		t.Helper()
		w := newWorld(p)
		w.SetWatchdog(30 * time.Second)
		return pcomm.Guard(w, f)
	}
	mustRun := func(t *testing.T, p int, f func(pcomm.Comm)) pcomm.Result {
		t.Helper()
		res, err := run(t, p, f)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res
	}
	runError := func(t *testing.T, err error) *pcomm.RunError {
		t.Helper()
		var re *pcomm.RunError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v (%T), want *pcomm.RunError", err, err)
		}
		return re
	}

	t.Run("FIFOPerTag", func(t *testing.T) {
		const n = 2000 // well past any fast-path mailbox depth
		mustRun(t, 2, func(c pcomm.Comm) {
			if c.ID() == 0 {
				for i := 0; i < n; i++ {
					c.Send(1, 7, i, pcomm.BytesOfInts(1))
				}
				return
			}
			for i := 0; i < n; i++ {
				if got := c.Recv(0, 7).(int); got != i {
					panic(fmt.Sprintf("message %d arrived out of order: got %d", i, got))
				}
			}
		})
	})

	t.Run("OutOfOrderTags", func(t *testing.T) {
		mustRun(t, 2, func(c pcomm.Comm) {
			if c.ID() == 0 {
				c.Send(1, 1, 11, pcomm.BytesOf[int](1))
				c.Send(1, 2, 2.5, pcomm.BytesOf[float64](1))
				c.Send(1, 1, 12, pcomm.BytesOf[int](1))
				c.Send(1, 3, nil, 0)
				return
			}
			for _, want := range []struct {
				tag int
				val any
			}{{3, nil}, {2, 2.5}, {1, 11}, {1, 12}} {
				if got := c.Recv(0, want.tag); got != want.val {
					panic(fmt.Sprintf("tag %d: got %v, want %v", want.tag, got, want.val))
				}
			}
		})
	})

	t.Run("BoxedRawInterchange", func(t *testing.T) {
		// Boxed and raw messages share a tag's FIFO order; each is
		// received in the form it was sent.
		vals := []float64{1.5, math.Copysign(0, -1), 5e-324, -math.MaxFloat64}
		mustRun(t, 2, func(c pcomm.Comm) {
			if c.ID() == 0 {
				pcomm.SendSlice(c, 1, 3, slices.Clone(vals))
				c.Send(1, 3, 30, pcomm.BytesOf[int](1)) // boxed, same tag
				pcomm.SendSlice(c, 1, 3, []int(nil))
				return
			}
			got := pcomm.RecvSlice[float64](c, 0, 3)
			for i := range vals {
				if len(got) != len(vals) || math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
					panic(fmt.Sprintf("raw float bits changed: %v", got))
				}
			}
			if v := c.Recv(0, 3); v != any(30) {
				panic(fmt.Sprintf("boxed scalar between raw messages: %v", v))
			}
			if empty := pcomm.RecvSlice[int](c, 0, 3); len(empty) != 0 {
				panic(fmt.Sprintf("nil slice arrived as %v", empty))
			}
		})
	})

	t.Run("RecvOnRawPanics", func(t *testing.T) {
		// Every backend's communicator is the engine's, which moves
		// SendSlice payloads as unboxed headers: a plain Recv of one is
		// a program error that names the fix.
		_, err := run(t, 2, func(c pcomm.Comm) {
			if c.ID() == 0 {
				pcomm.SendSlice(c, 1, 1, []int{1})
				return
			}
			c.Recv(0, 1)
		})
		if err == nil || !strings.Contains(err.Error(), "RecvSlice") {
			t.Fatalf("err = %v, want the RecvSlice hint", err)
		}
	})

	t.Run("RecvSliceOnBoxedPanics", func(t *testing.T) {
		// The mirror case: a boxed message is never reinterpreted as a
		// slice, and the error names the fix.
		_, err := run(t, 2, func(c pcomm.Comm) {
			if c.ID() == 0 {
				c.Send(1, 1, 1, pcomm.BytesOf[int](1))
				return
			}
			pcomm.RecvSlice[int](c, 0, 1)
		})
		if err == nil || !strings.Contains(err.Error(), "matched a boxed message; receive it with Recv") {
			t.Fatalf("err = %v, want the Recv hint", err)
		}
	})

	t.Run("RankOrderFolds", func(t *testing.T) {
		// Addends whose sum depends on the association order: only the
		// left-to-right rank-order fold yields this bit pattern.
		fs := []float64{1e16, 1, -1e16, 1, 1}
		wantSum := fs[0]
		for _, x := range fs[1:] {
			wantSum += x
		}
		P := len(fs)
		mustRun(t, P, func(c pcomm.Comm) {
			id := c.ID()
			for round := 0; round < 50; round++ { // collectives are reusable back to back
				if got := c.AllReduceFloat64(fs[id], pcomm.OpSum); math.Float64bits(got) != math.Float64bits(wantSum) {
					panic(fmt.Sprintf("rank %d: float sum = %v, want %v", id, got, wantSum))
				}
			}
			if got := c.AllReduceFloat64(fs[id], pcomm.OpMax); got != 1e16 {
				panic(fmt.Sprintf("float max = %v", got))
			}
			if got := c.AllReduceFloat64(fs[id], pcomm.OpMin); got != -1e16 {
				panic(fmt.Sprintf("float min = %v", got))
			}
			if got := c.AllReduceInt(id+1, pcomm.OpSum); got != P*(P+1)/2 {
				panic(fmt.Sprintf("int sum = %d", got))
			}
			if got := c.AllReduceInt(id*10, pcomm.OpMax); got != (P-1)*10 {
				panic(fmt.Sprintf("int max = %d", got))
			}
			if got := c.AllReduceInt(id+10, pcomm.OpMin); got != 10 {
				panic(fmt.Sprintf("int min = %d", got))
			}
			for q, r := range pcomm.AllGatherSlice(c, []int{id, id * id}) {
				if len(r) != 2 || r[0] != q || r[1] != q*q {
					panic(fmt.Sprintf("rank %d: gathered ints[%d] = %v", id, q, r))
				}
			}
			for q, r := range pcomm.AllGatherSlice(c, []float64{float64(id) + 0.5}) {
				if len(r) != 1 || r[0] != float64(q)+0.5 {
					panic(fmt.Sprintf("rank %d: gathered floats[%d] = %v", id, q, r))
				}
			}
			for q, r := range pcomm.AllGatherSlice(c, make([]bool, id%2)) {
				if len(r) != q%2 {
					panic(fmt.Sprintf("rank %d: gathered flags[%d] = %v", id, q, r))
				}
			}
		})
	})

	t.Run("BarrierSeparatesPhases", func(t *testing.T) {
		const rounds = 100
		var phase atomic.Int64
		mustRun(t, 4, func(c pcomm.Comm) {
			for r := 0; r < rounds; r++ {
				c.Barrier()
				if got := phase.Load(); got != int64(r) {
					panic(fmt.Sprintf("rank %d round %d: phase %d", c.ID(), r, got))
				}
				c.Barrier()
				if c.ID() == 0 {
					phase.Add(1)
				}
			}
		})
	})

	// Collectives must stay correct when ranks drift apart: seeded stalls
	// put one rank or another behind, so the rest have deposited for the
	// next collective — and wait in it — while the straggler still reads
	// the last one. Every fold is checked against the serial answer; under
	// the race detector a deposit that overwrote a slot still being read
	// would also be a reported race.
	t.Run("CollectivesRunAhead", func(t *testing.T) {
		const P = 4
		n := 10000
		if os.Getenv("PILUT_TEST_FAST") != "" {
			n = 2000
		}
		addend := func(i, r int) float64 {
			return [...]float64{1e16, 1, -1e16, 3}[(i+r)%4] * float64(1+i%5)
		}
		mustRun(t, P, func(c pcomm.Comm) {
			id := c.ID()
			rng := rand.New(rand.NewSource(int64(977*id + 5)))
			for i := 0; i < n; i++ {
				switch rng.Intn(16) {
				case 0:
					time.Sleep(20 * time.Microsecond)
				case 1, 2:
					for k := rng.Intn(50); k > 0; k-- {
						runtime.Gosched()
					}
				}
				switch i % 4 {
				case 0:
					want := addend(i, 0)
					for r := 1; r < P; r++ {
						want += addend(i, r)
					}
					if got := c.AllReduceFloat64(addend(i, id), pcomm.OpSum); math.Float64bits(got) != math.Float64bits(want) {
						panic(fmt.Sprintf("rank %d collective %d: float sum = %v, want %v", id, i, got, want))
					}
				case 1:
					if got := c.AllReduceInt(i*(id+1), pcomm.OpMax); got != i*P {
						panic(fmt.Sprintf("rank %d collective %d: int max = %d, want %d", id, i, got, i*P))
					}
				case 2:
					for q, r := range pcomm.AllGatherSlice(c, []int{i, q2(id)}) {
						if len(r) != 2 || r[0] != i || r[1] != q2(q) {
							panic(fmt.Sprintf("rank %d collective %d: gathered[%d] = %v", id, i, q, r))
						}
					}
				case 3:
					c.Barrier()
				}
			}
		})
	})

	t.Run("CollectiveMismatch", func(t *testing.T) {
		_, err := run(t, 3, func(c pcomm.Comm) {
			if c.ID() == 0 {
				c.AllReduceInt(1, pcomm.OpSum)
			} else {
				c.Barrier()
			}
		})
		if err == nil || !strings.Contains(err.Error(), "collective mismatch") ||
			!strings.Contains(err.Error(), `"allreduce_int"`) || !strings.Contains(err.Error(), `"barrier"`) {
			t.Fatalf("err = %v, want a collective mismatch naming both ops", err)
		}
		runError(t, err)
	})

	t.Run("InvalidDestination", func(t *testing.T) {
		_, err := run(t, 2, func(c pcomm.Comm) {
			if c.ID() == 0 {
				c.Send(5, 0, nil, 0)
			} else {
				c.Recv(0, 0) // woken by the failure, not by a message
			}
		})
		if re := runError(t, err); re.Rank != 0 || !strings.Contains(err.Error(), "invalid") {
			t.Fatalf("err = %v (rank %d), want rank 0 rejecting the destination", err, re.Rank)
		}
	})

	// A panic on one rank must surface as the run's root cause — rank,
	// value, stack — wherever its siblings are parked.
	for _, parked := range []string{"Recv", "Barrier"} {
		t.Run("RootCauseSiblingsIn"+parked, func(t *testing.T) {
			_, err := run(t, 4, func(c pcomm.Comm) {
				if c.ID() == 3 {
					panic("boom on rank 3")
				}
				if parked == "Recv" {
					c.Recv(3, 9)
				} else {
					c.Barrier()
				}
			})
			re := runError(t, err)
			if re.Rank != 3 || re.Cause != any("boom on rank 3") {
				t.Fatalf("root cause lost: rank=%d cause=%v", re.Rank, re.Cause)
			}
			if !strings.Contains(re.Stack, "Conformance") {
				t.Errorf("stack does not name the panicking frame:\n%s", re.Stack)
			}
			if !strings.Contains(re.Dump, "root-cause stack (rank 3)") {
				t.Errorf("dump missing the root-cause stack section:\n%s", re.Dump)
			}
		})
	}

	t.Run("WatchdogNamesBlockedOps", func(t *testing.T) {
		w := newWorld(3)
		w.SetWatchdog(300 * time.Millisecond)
		_, err := pcomm.Guard(w, func(c pcomm.Comm) {
			// A one-sided collective, the static form of which the
			// collective analyzer flags.
			if c.ID() == 2 {
				c.Recv(0, 5)
			} else {
				c.Barrier()
			}
		})
		re := runError(t, err)
		// A modelled world finds the deadlock exactly, before the watchdog
		// expires; the wall-clock ones need the watchdog.
		var de *pcomm.DeadlockError
		if !errors.As(err, &de) || !strings.Contains(de.Error(), "watchdog") && !strings.Contains(de.Error(), "deadlock: no processor can proceed") {
			t.Fatalf("err = %v, want a *pcomm.DeadlockError", err)
		}
		if re.Rank != -1 {
			t.Errorf("watchdog failure blames rank %d, want -1 (no single culprit)", re.Rank)
		}
		if re.Backend != name || de.Backend != name {
			t.Errorf("RunError.Backend %q, DeadlockError.Backend %q, want both %q", re.Backend, de.Backend, name)
		}
		for _, want := range []string{"blocked in Recv(src=0, tag=5)", `waiting in collective "barrier"`} {
			if !strings.Contains(re.Dump, want) {
				t.Errorf("dump missing %q:\n%s", want, re.Dump)
			}
		}
	})

	t.Run("SingleUse", func(t *testing.T) {
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", what)
				}
			}()
			f()
		}
		w := newWorld(2)
		w.Run(func(c pcomm.Comm) { c.Barrier() })
		mustPanic("second Run", func() { w.Run(func(pcomm.Comm) {}) })
		mustPanic("SetWatchdog after Run", func() { w.SetWatchdog(time.Second) })
		mustPanic("SetRecorder after Run", func() { w.SetRecorder(nil) })

		failed := newWorld(2)
		if _, err := pcomm.Guard(failed, func(pcomm.Comm) { panic("boom") }); err == nil {
			t.Fatal("panicking run reported success")
		}
		mustPanic("Run on a failed world", func() { failed.Run(func(pcomm.Comm) {}) })
	})

	t.Run("Counters", func(t *testing.T) {
		const P = 3
		res := mustRun(t, P, func(c pcomm.Comm) {
			id, next, prev := c.ID(), (c.ID()+1)%P, (c.ID()+P-1)%P
			c.Work(float64(100 * (id + 1)))
			c.Send(next, 1, 1.0, pcomm.BytesOf[float64](1))
			c.Send(next, 2, nil, 100)
			pcomm.SendSlice(c, next, 3, []float64{1, 2, 3})
			pcomm.SendSlice(c, next, 4, []bool{true, false, true})
			pcomm.SendSlice(c, next, 5, []int32{1, 2})
			c.Recv(prev, 2)
			c.Recv(prev, 1)
			pcomm.RecvSlice[float64](c, prev, 3)
			pcomm.RecvSlice[bool](c, prev, 4)
			pcomm.RecvSlice[int32](c, prev, 5)
			c.Barrier()
			c.AllReduceFloat64(1, pcomm.OpSum)
			c.AllReduceInt(1, pcomm.OpMax)
			pcomm.AllGatherSlice(c, []int{id})
			if st := c.Stats(); st.MsgsSent != 5 || st.Collectives != 4 {
				panic(fmt.Sprintf("mid-run Stats() = %+v", st))
			}
		})
		if len(res.PerProc) != P {
			t.Fatalf("PerProc has %d entries, want %d", len(res.PerProc), P)
		}
		for r, st := range res.PerProc {
			// A raw message is Len × Elem bytes: 3 × 8, 3 × 1 and 2 × 4.
			if st.MsgsSent != 5 || st.BytesSent != 8+100+24+3+8 || st.Collectives != 4 || st.Flops != float64(100*(r+1)) {
				t.Errorf("rank %d stats = %+v", r, st)
			}
		}
		if res.TotalBytes() != P*143 || res.TotalFlops() != 600 {
			t.Errorf("TotalBytes = %d, TotalFlops = %v", res.TotalBytes(), res.TotalFlops())
		}
	})

	t.Run("TraceSpans", func(t *testing.T) {
		const P = 2
		w := newWorld(P)
		rec := trace.NewRecorder(P)
		w.SetRecorder(rec)
		w.SetWatchdog(30 * time.Second)
		w.Run(func(c pcomm.Comm) {
			if !c.Tracer().Enabled() {
				panic("tracer disabled with a recorder set")
			}
			if c.ID() == 0 {
				c.Send(1, 1, nil, 0)
			} else {
				c.Recv(0, 1)
			}
			c.Barrier()
			c.AllReduceFloat64(1, pcomm.OpSum)
			c.AllReduceInt(1, pcomm.OpSum)
			pcomm.AllGatherSlice[int](c, nil)
		})
		seen := map[string]int{}
		for _, e := range rec.Events() {
			if e.Cat == "machine" {
				seen[e.Name]++
			}
		}
		for name, want := range map[string]int{"send": 1, "recv": 1, "barrier": P,
			"allreduce_f64": P, "allreduce_int": P, "allgather": P} {
			if seen[name] != want {
				t.Errorf("%d %q events, want %d; got %v", seen[name], name, want, seen)
			}
		}
	})
}

// q2 is the second entry rank r gathers in the run-ahead case.
func q2(r int) int { return r*r + 1 }

func TestConformanceModelled(t *testing.T) {
	Conformance(t, "modelled", func(p int) pcomm.World { return modelled.New(p, machine.T3D()) })
}

func TestConformanceReal(t *testing.T) {
	Conformance(t, "real", func(p int) pcomm.World { return realcomm.New(p) })
}

// TestConformanceNetcomm runs the contract over a two-node group inside
// this process: every "process" is a netcomm.Node with its own listener,
// so frames, the coordinator and abort fan-out are all on the path.
func TestConformanceNetcomm(t *testing.T) {
	dir := t.TempDir()
	peers := []string{filepath.Join(dir, "p0.sock"), filepath.Join(dir, "p1.sock")}
	nodes := make([]*netcomm.Node, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i := range peers {
		wg.Add(1)
		go func(i int) { // rendezvous blocks until every node is up
			defer wg.Done()
			nodes[i], errs[i] = netcomm.NewNode(&netcomm.Spec{Raw: "conformance:" + dir, Listen: peers[i], Peers: peers, Self: i})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if err := nd.Close(); err != nil {
				t.Logf("closing node: %v", err)
			}
		}
	})
	Conformance(t, "netcomm", func(p int) pcomm.World {
		g := &groupWorld{t: t, worlds: make([]pcomm.World, len(nodes))}
		for i, nd := range nodes {
			w, err := nd.NewWorld(p)
			if err != nil {
				t.Fatalf("node %d NewWorld: %v", i, err)
			}
			g.worlds[i] = w
		}
		return g
	})
}

// groupWorld presents one world per process of a netcomm group as a
// single pcomm.World, the way a launcher sees a multi-process run: Run
// drives every process's share concurrently, requires the same verdict
// and the identical Result from each, and on failure reports the process
// that saw the native cause (the others only hold a RemoteAbort of it) with every
// process's blocked-state dump.
type groupWorld struct {
	t      *testing.T
	worlds []pcomm.World
}

func (g *groupWorld) NumProcs() int { return g.worlds[0].NumProcs() }

func (g *groupWorld) SetWatchdog(d time.Duration) {
	for _, w := range g.worlds {
		w.SetWatchdog(d)
	}
}

func (g *groupWorld) SetRecorder(r *trace.Recorder) {
	for _, w := range g.worlds {
		w.SetRecorder(r)
	}
}

func (g *groupWorld) Run(f func(pcomm.Comm)) pcomm.Result {
	results := make([]pcomm.Result, len(g.worlds))
	fails := make([]any, len(g.worlds))
	var wg sync.WaitGroup
	for i, w := range g.worlds {
		wg.Add(1)
		go func(i int, w pcomm.World) {
			defer wg.Done()
			defer func() { fails[i] = recover() }()
			results[i] = w.Run(f)
		}(i, w)
	}
	wg.Wait()
	var native *pcomm.RunError
	var dumps []string
	for i, r := range fails {
		re, ok := r.(*pcomm.RunError)
		if r != nil && !ok {
			panic(r) // a lifecycle panic (second Run, ...), same on every process
		}
		if (r == nil) != (fails[0] == nil) {
			g.t.Errorf("process %d and process 0 disagree on whether the run failed: %v vs %v", i, r, fails[0])
		}
		if ok {
			dumps = append(dumps, re.Dump)
			var remote *netcomm.RemoteAbort
			if native == nil || errors.As(native, &remote) {
				native = re
			}
		}
	}
	if native != nil {
		merged := *native
		merged.Dump = strings.Join(dumps, "\n")
		panic(&merged)
	}
	for i := 1; i < len(results); i++ {
		for r := range results[0].PerProc {
			if results[i].PerProc[r] != results[0].PerProc[r] {
				g.t.Errorf("rank %d stats differ between processes 0 and %d: %+v vs %+v", r, i, results[0].PerProc[r], results[i].PerProc[r])
			}
		}
	}
	return results[0]
}
