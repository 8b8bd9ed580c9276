package netcomm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pcomm"
)

// newGroup builds an n-process group inside this one test process:
// every "process" is a Node with its own listener, talking to the
// others over real unix sockets. The full wire path — handshakes,
// control rendezvous, data frames, coordinator broadcasts — is
// exercised; only the OS process boundary is folded away (the spawn
// smoke test covers that).
func newGroup(t *testing.T, n int) []*Node {
	t.Helper()
	dir := t.TempDir()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = filepath.Join(dir, fmt.Sprintf("p%d.sock", i))
	}
	nodes := make([]*Node, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = NewNode(&Spec{Raw: fmt.Sprintf("test:%s#%d", dir, i), Listen: peers[i], Peers: peers, Self: i})
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
	return nodes
}

// runGroup runs f as one P-rank world across the group and returns each
// process's Result. Every process must return the identical Result.
func runGroup(t *testing.T, nodes []*Node, p int, f func(pcomm.Comm)) []pcomm.Result {
	t.Helper()
	worlds := make([]*World, len(nodes))
	for i, nd := range nodes {
		w, err := nd.NewWorld(p)
		if err != nil {
			t.Fatalf("node %d NewWorld: %v", i, err)
		}
		worlds[i] = w
	}
	results := make([]pcomm.Result, len(nodes))
	runErrs := make([]error, len(nodes))
	var wg sync.WaitGroup
	wg.Add(len(nodes))
	for i, w := range worlds {
		go func(i int, w *World) {
			defer wg.Done()
			w.SetWatchdog(30 * time.Second)
			results[i], runErrs[i] = pcomm.Guard(w, f)
		}(i, w)
	}
	wg.Wait()
	for i, err := range runErrs {
		if err != nil {
			t.Fatalf("process %d run: %v", i, err)
		}
	}
	return results
}

// TestGroupPanicPropagation kills one rank on the second process and
// checks every process's Run fails: natively where the panic happened,
// as a RemoteAbort elsewhere.
func TestGroupPanicPropagation(t *testing.T) {
	nodes := newGroup(t, 2)
	const P = 4
	worlds := make([]*World, 2)
	for i, nd := range nodes {
		w, err := nd.NewWorld(P)
		if err != nil {
			t.Fatal(err)
		}
		w.SetWatchdog(30 * time.Second)
		worlds[i] = w
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for i, w := range worlds {
		go func(i int, w *World) {
			defer wg.Done()
			_, errs[i] = pcomm.Guard(w, func(c pcomm.Comm) {
				if c.ID() == 3 {
					panic("rank 3 exploded")
				}
				// Everyone else parks in a collective the dead rank never joins.
				c.Barrier()
			})
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		var re *pcomm.RunError
		if !errors.As(err, &re) {
			t.Fatalf("process %d: err = %v, want *pcomm.RunError", i, err)
		}
		if re.Backend != "netcomm" {
			t.Fatalf("process %d: backend %q", i, re.Backend)
		}
	}
	// Rank 3 lives on process 1: its process sees the native cause.
	if !strings.Contains(errs[1].Error(), "rank 3 exploded") {
		t.Fatalf("process 1 error lost the native cause: %v", errs[1])
	}
	// Process 0 sees a RemoteAbort carrying rank and message.
	var ra *RemoteAbort
	if !errors.As(errs[0], &ra) {
		t.Fatalf("process 0: err = %v, want RemoteAbort inside", errs[0])
	}
	if ra.Rank != 3 || !strings.Contains(ra.Msg, "rank 3 exploded") {
		t.Fatalf("process 0 RemoteAbort = %+v", ra)
	}
}

// TestGroupBoxedSliceFails: a boxed array sent to a rank in another
// process fails the run with the fix named — natively on the sender's
// process, as a RemoteAbort on the receiver's — instead of crossing
// through some fallback codec.
func TestGroupBoxedSliceFails(t *testing.T) {
	nodes := newGroup(t, 2)
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		w, err := nd.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		w.SetWatchdog(30 * time.Second)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = pcomm.Guard(w, func(c pcomm.Comm) {
				if c.ID() == 0 {
					c.Send(1, 1, []int{1, 2, 3}, pcomm.BytesOfInts(3))
				} else {
					c.Recv(0, 1)
				}
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "pcomm.SendSlice") {
			t.Errorf("process %d: err = %v, want the SendSlice hint", i, err)
		}
	}
}

// TestGroupWatchdog checks a cross-process deadlock (a Recv nobody
// serves) fires the watchdog into a DeadlockError on the blocked
// process and aborts the peer.
func TestGroupWatchdog(t *testing.T) {
	nodes := newGroup(t, 2)
	const P = 2
	worlds := make([]*World, 2)
	for i, nd := range nodes {
		w, err := nd.NewWorld(P)
		if err != nil {
			t.Fatal(err)
		}
		// Process 0's rank finishes, yet its Run still waits, under its
		// own watchdog, for the group's completion. Only the blocked
		// process's timer may expire first, or the two race to abort
		// each other and the blocked one sees a RemoteAbort instead.
		w.SetWatchdog([]time.Duration{time.Minute, 500 * time.Millisecond}[i])
		worlds[i] = w
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for i, w := range worlds {
		go func(i int, w *World) {
			defer wg.Done()
			_, errs[i] = pcomm.Guard(w, func(c pcomm.Comm) {
				if c.ID() == 1 {
					c.Recv(0, 99) // never sent
				}
			})
		}(i, w)
	}
	wg.Wait()
	var dl *pcomm.DeadlockError
	if !errors.As(errs[1], &dl) {
		t.Fatalf("blocked process err = %v, want DeadlockError", errs[1])
	}
	if !strings.Contains(dl.Dump, "Recv(src=0, tag=99)") {
		t.Fatalf("deadlock dump does not name the blocked Recv:\n%s", dl.Dump)
	}
	if errs[0] == nil {
		t.Fatal("peer process run survived a group deadlock")
	}
}

// TestGroupZeroRankProcess runs a 1-rank world over 2 processes: the
// second process hosts no ranks but still gets the identical Result.
func TestGroupZeroRankProcess(t *testing.T) {
	nodes := newGroup(t, 2)
	results := runGroup(t, nodes, 1, func(c pcomm.Comm) {
		if c.ID() != 0 {
			panic("unexpected rank")
		}
		c.Work(123)
		if v := c.AllReduceFloat64(2.5, pcomm.OpSum); v != 2.5 {
			panic("single-rank allreduce broken")
		}
	})
	for i, res := range results {
		if len(res.PerProc) != 1 || res.PerProc[0].Flops != 123 {
			t.Fatalf("process %d result = %+v", i, res)
		}
	}
}

// TestGroupSequentialWorlds runs several generations over one group,
// checking generation isolation (the registry reuses nodes the same
// way).
func TestGroupSequentialWorlds(t *testing.T) {
	nodes := newGroup(t, 2)
	for gen := 0; gen < 3; gen++ {
		p := 2 + gen // vary P across generations
		runGroup(t, nodes, p, func(c pcomm.Comm) {
			want := p * (p - 1) / 2
			if got := c.AllReduceInt(c.ID(), pcomm.OpSum); got != want {
				panic(fmt.Sprintf("gen world P=%d: sum = %d, want %d", p, got, want))
			}
		})
	}
}

// TestGroupDropFaultReconnect arms a drop fault on a cross-boundary
// sender: the connection is severed once (the receiver sees a benign
// half-close), the next send redials, and the lost message surfaces as
// a watchdog deadlock whose dump names the armed transport.
func TestGroupDropFaultReconnect(t *testing.T) {
	nodes := newGroup(t, 2)
	const P = 2
	worlds := make([]*World, 2)
	for i, nd := range nodes {
		w, err := nd.NewWorld(P)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for i, w := range worlds {
		go func(i int, w *World) {
			defer wg.Done()
			_, errs[i] = pcomm.Guard(w, func(c pcomm.Comm) {
				// Rank 0 (process 0) sends to rank 1 (process 1); the second
				// send is dropped by severing the connection, the third
				// proves the redial works.
				if c.ID() == 0 {
					td := c.(pcomm.TransportDropper)
					c.Send(1, 1, 1.0, 8)
					desc := td.DropTransport(1) // what the fault layer does for the dropped send
					if !strings.Contains(desc, "netcomm") || !strings.Contains(desc, "rank 0→1") {
						panic("transport description unhelpful: " + desc)
					}
					c.Send(1, 3, 3.0, 8) // redial path
				} else {
					if v := c.Recv(0, 1).(float64); v != 1.0 {
						panic("first message mangled")
					}
					if v := c.Recv(0, 3).(float64); v != 3.0 {
						panic("post-drop message mangled")
					}
				}
				c.Barrier()
			})
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
}

// TestSpawnSmoke is the exec-based two-OS-process end-to-end test: the
// parent re-executes this test binary (spawn mode), the child joins the
// group via the explicit spec in its environment, and one world spans
// both processes. Inside the child this same test runs again and takes
// the join path, which is exactly the SPMD-at-program-granularity
// contract.
func TestSpawnSmoke(t *testing.T) {
	spec := os.Getenv(BackendEnvVar)
	if !IsSpec(spec) {
		spec = "netcomm:spawn=2"
	}
	w, err := WorldFor(spec, 3)
	if err != nil {
		t.Fatalf("WorldFor(%q): %v", spec, err)
	}
	w.SetWatchdog(90 * time.Second)
	res, err := pcomm.Guard(w, func(c pcomm.Comm) {
		id := c.ID()
		if got := c.AllReduceInt(id+1, pcomm.OpSum); got != 6 {
			panic(fmt.Sprintf("spawned world sum = %d", got))
		}
		next := (id + 1) % 3
		c.Send(next, 7, float64(id)*0.125, 8)
		prev := (id + 2) % 3
		if got := c.Recv(prev, 7).(float64); got != float64(prev)*0.125 {
			panic(fmt.Sprintf("spawned ring got %v", got))
		}
	})
	if err != nil {
		t.Fatalf("spawned run: %v", err)
	}
	if len(res.PerProc) != 3 {
		t.Fatalf("PerProc has %d entries", len(res.PerProc))
	}
	for r := 0; r < 3; r++ {
		if res.PerProc[r].Collectives != 1 || res.PerProc[r].MsgsSent != 1 {
			t.Fatalf("rank %d stats = %+v", r, res.PerProc[r])
		}
	}
}
