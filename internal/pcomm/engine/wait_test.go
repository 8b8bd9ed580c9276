package engine

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pcomm"
)

// p2pOnly is a transport for worlds that only exchange messages between
// co-located ranks: nothing ships, no collective is entered.
type p2pOnly struct{}

func (p2pOnly) Ship(*Proc, int, Message)               { panic("p2pOnly: Ship") }
func (p2pOnly) GatherFloat64(*Proc, float64) []float64 { panic("p2pOnly: collective") }
func (p2pOnly) GatherInt(*Proc, int) []int             { panic("p2pOnly: collective") }
func (p2pOnly) Gather(*Proc, Op, any) []any            { panic("p2pOnly: collective") }
func (p2pOnly) Abort(int, any)                         {}
func (p2pOnly) Finish(l []pcomm.Stats) pcomm.Result    { return pcomm.NewResult(l) }
func (p2pOnly) DumpFrame() (string, string)            { return "test world:", "" }

// A rank that fails while another is waiting for a message unwinds it —
// whether that one is still yielding or already asleep — and the dump
// taken at the failure shows the waiter blocked in its Recv: the state
// word is published before the first yield, so a yielding rank never
// reads as computing.
func TestFailureUnwindsWaitingRank(t *testing.T) {
	w := New(p2pOnly{}, "test", "engine", "proc", 2, 0, 2)
	w.SetWatchdog(30 * time.Second)
	_, err := pcomm.Guard(w, func(c pcomm.Comm) {
		if c.ID() == 1 {
			c.Recv(0, 5) // never sent
			return
		}
		for w.procs[1].blocked.Load() == stateNone {
			runtime.Gosched()
		}
		panic("boom on rank 0")
	})
	var re *pcomm.RunError
	if !errors.As(err, &re) || re.Rank != 0 || re.Cause != any("boom on rank 0") {
		t.Fatalf("err = %v, want a *pcomm.RunError blaming rank 0", err)
	}
	if want := "proc 1: blocked in Recv(src=0, tag=5)"; !strings.Contains(re.Dump, want) {
		t.Errorf("dump missing %q:\n%s", want, re.Dump)
	}
}

// A receiver that yields must not keep the P from the sender: with every
// rank on one P a round trip still completes, each message seen in the
// yield loop or the sleep behind it.
func TestYieldingReceiverDoesNotStarveSender(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := New(p2pOnly{}, "test", "engine", "proc", 2, 0, 2)
	w.SetWatchdog(30 * time.Second)
	_, err := pcomm.Guard(w, func(c pcomm.Comm) {
		peer := 1 - c.ID()
		for i := 0; i < 2000; i++ {
			if c.ID() == i%2 {
				c.Send(peer, 1, i, pcomm.BytesOfInts(1))
			} else if got := c.Recv(peer, 1).(int); got != i {
				panic("message out of order")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

type flagCond struct{ atomic.Bool }

func (c *flagCond) Ready() bool { return c.Load() }

// A ring may come late, for a change the rank has already seen by itself:
// a rank woken with its condition still false goes back to sleep instead
// of returning — for a collective, returning would mean reading deposit
// slots before everyone has written them.
func TestWaitSleepsThroughALateRing(t *testing.T) {
	w := New(p2pOnly{}, "test", "engine", "proc", 2, 0, 2)
	w.SetWatchdog(30 * time.Second)
	var bell Bell
	bell.Init()
	var cond flagCond
	var returned atomic.Bool
	asleep := func() {
		for !bell.asleep.Load() && !returned.Load() {
			runtime.Gosched()
		}
	}
	_, err := pcomm.Guard(w, func(c pcomm.Comm) {
		if c.ID() == 1 {
			c.(*Proc).Wait(Waiting(OpBarrier, 0), &bell, &cond)
			returned.Store(true)
			return
		}
		asleep()
		bell.Ring() // nothing has changed
		asleep()    // ... and the rank is back asleep
		if returned.Load() {
			panic("Wait returned on a ring with its condition false")
		}
		cond.Store(true)
		bell.Ring()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !returned.Load() {
		t.Fatal("Wait did not return once its condition held")
	}
}
