// Package engine is the one pcomm engine. It owns what every backend does
// the same way — per-(src, dst) mailboxes with FIFO-per-tag matching, the
// processor handle with its counters, clock and trace spans, the
// collectives' rank-order fold, the blocked-state dump — and the run
// around them: the watchdog, the failure record and the *pcomm.RunError
// a failed run panics with (run.go). What differs between backends sits
// behind Transport: where ranks other than the local block live and how
// the P ranks of a collective meet. realcomm (all ranks in one process, a
// barrier over shared slots) and netcomm (a block of ranks per OS
// process, sockets and a coordinator) are the two transports.
//
// A world's clock is the wall clock, or — given a machine.CostModel — the
// modelled machine's LogP virtual clock: a per-rank time advanced by
// Work and Sleep, stamped on every message as its arrival time and taken
// in by Recv, and maxed over the ranks at every collective. The modelled
// backend is realcomm's transport under that clock. Its result and every
// clock reading are independent of how the ranks interleave, so a
// modelled world runs them one at a time, as coroutines on one goroutine:
// a driver resumes the runnable rank with the least modelled clock, and
// finds a deadlock exactly, the moment no rank can proceed (sched.go).
// Wall-clock worlds run a goroutine per rank.
//
// Payload slices pass by reference between co-located ranks (zero-copy):
// messages and all-gather contributions move as pcomm.RawSlice headers,
// never boxed into interface values.
package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/pcomm"
	"repro/internal/trace"
)

// Op identifies a collective. Rendezvous state and the blocked-state word
// carry these bytes instead of strings; String renders them for mismatch
// panics, the watchdog dump, trace span names and netcomm's wire.
type Op uint8

// The collectives.
const (
	OpBarrier Op = iota
	OpAllReduceF64
	OpAllReduceInt
	OpAllGather
)

var opNames = [...]string{"barrier", "allreduce_f64", "allreduce_int", "allgather"}

func (o Op) String() string { return opNames[o] }

// Blocked-state encoding: publishing a wait state on the receive and
// collective hot paths is one atomic uint64 store instead of an
// fmt.Sprintf plus a string-into-interface heap escape. Layout: bits
// [0,3) kind, [3,8) collective op; a receive adds [8,24) source rank and
// [24,64) tag, a collective wait adds [8,64) the transport's round number
// (0 when it has none). dump decodes back to human-readable strings.
const (
	stateNone uint64 = iota
	stateRecv
	stateCollWait
)

// Waiting is the blocked state of a rank waiting until every rank has
// entered collective op.
func Waiting(op Op, round uint64) uint64 { return stateCollWait | uint64(op)<<3 | round<<8 }

func renderBlocked(s uint64) string {
	op := Op(s >> 3 & 31)
	switch s & 7 {
	case stateRecv:
		return fmt.Sprintf("blocked in Recv(src=%d, tag=%d)", s>>8&0xFFFF, s>>24)
	case stateCollWait:
		if round := s >> 8; round > 0 {
			return fmt.Sprintf("waiting in collective %q (round %d)", op, round)
		}
		return fmt.Sprintf("waiting in collective %q", op)
	}
	return "not blocked in the communicator (computing or finished)"
}

// Transport is what a backend supplies to the engine. Every method taking
// a *Proc runs on that rank's goroutine.
type Transport interface {
	// Ship delivers m to dst, a rank this process does not host.
	Ship(p *Proc, dst int, m Message)

	// The Gather methods deposit this rank's contribution to a
	// collective, block (through p.Wait) until all P ranks have entered
	// it — panicking when they entered different ones — and
	// return every rank's contribution in rank order. The view stays
	// valid, and must not be written, until the rank enters its next
	// collective.
	GatherFloat64(p *Proc, v float64) []float64               // OpAllReduceF64
	GatherInt(p *Proc, v int) []int                           // OpAllReduceInt
	Gather(p *Proc, op Op, h pcomm.RawSlice) []pcomm.RawSlice // OpBarrier (h zero), OpAllGather

	// Abort runs once when the run fails in this process: ring the bell
	// of every rank that may be asleep in a collective, tell the other
	// processes, tear down whatever could keep a rank blocked elsewhere.
	Abort(rank int, cause any)
	// Finish runs once after the local ranks' goroutines have ended,
	// still under the watchdog, whether or not the run failed. It turns
	// their final stats (indexed by rank − lo) into the world's Result.
	Finish(local []pcomm.Stats) pcomm.Result
	// DumpFrame returns the lines around the per-rank table of the
	// blocked-state dump: what this process hosts, what it cannot see.
	DumpFrame() (head, tail string)
}

// World is one P-rank run, hosting ranks [lo, hi). It implements
// pcomm.World; like every backend it is single-use.
type World struct {
	t         Transport
	name      string // "modelled", "real" or "netcomm"
	p, lo, hi int
	boxes     []mailbox // index (dst-lo)*p + src
	procs     []*Proc   // index rank-lo
	start     time.Time

	// The run lifecycle (run.go): the pre-Run settings under mu, and the
	// first failure, after which failCh is closed.
	mu       sync.Mutex
	started  bool
	watchdog time.Duration
	rec      *trace.Recorder
	fail     atomic.Pointer[failure]
	failCh   chan struct{}

	// The modelled clock; cost is nil on the wall clock. logP is
	// ceil(log2 P), at least 1: the steps of a collective. clocks holds
	// the ranks' entry clocks of collective g in set g&1 — the transport's
	// parity invariant, which lets a rank read set g&1 while a faster one
	// writes the other, and keeps anyone from writing it again before
	// every rank has left g.
	cost   *machine.CostModel
	logP   float64
	clocks [2][]float64

	// pick, set only by the schedule-independence tests, chooses the rank
	// a modelled world resumes among the runnable ones (sched.go).
	pick func(runnable []int) int
}

// running counts the wall-clock worlds of this process inside Run. A
// waiting rank yields the P only while there is one (Proc.Wait).
var running atomic.Int32

// New creates the engine for ranks [lo, hi) of a p-rank world over t.
// name is the backend's: the RunError and DeadlockError Backend and the
// prefix of its panics. cost, when not nil, puts the world on the
// modelled clock; such a world must host all its ranks.
func New(t Transport, cost *machine.CostModel, name string, p, lo, hi int) *World {
	w := &World{t: t, name: name, p: p, lo: lo, hi: hi,
		boxes: make([]mailbox, (hi-lo)*p), procs: make([]*Proc, hi-lo), failCh: make(chan struct{})}
	if cost != nil {
		if lo != 0 || hi != p {
			panic(fmt.Sprintf("%s: a modelled world hosts all its ranks, not [%d,%d) of %d", name, lo, hi, p))
		}
		w.cost = cost
		w.logP = max(1, math.Ceil(math.Log2(float64(p))))
		w.clocks = [2][]float64{make([]float64, p), make([]float64, p)}
	}
	for i := range w.boxes {
		w.boxes[i].ch = make(chan Message, mailboxCap)
		w.boxes[i].bell.Init()
		w.boxes[i].stash = make([]Message, 0, stashCap)
	}
	for i := range w.procs {
		w.procs[i] = &Proc{id: lo + i, w: w, cost: cost}
	}
	return w
}

// NumProcs returns P — the world size, not this process's share of it.
func (w *World) NumProcs() int { return w.p }

// Deliver feeds a message that arrived from src, a rank hosted elsewhere,
// into local rank dst's mailbox. One goroutine at a time per (src, dst).
func (w *World) Deliver(src, dst int, m Message) {
	w.boxes[(dst-w.lo)*w.p+src].put(m)
}

// dump renders every local rank's last published blocked state, and on
// the modelled clock the virtual time it was published at.
func (w *World) dump() string {
	head, tail := w.t.DumpFrame()
	var b strings.Builder
	b.WriteString(head)
	for _, p := range w.procs {
		fmt.Fprintf(&b, "\n  rank %d: %s", p.id, renderBlocked(p.blocked.Load()))
		if w.cost != nil {
			fmt.Fprintf(&b, " at t=%.3e", math.Float64frombits(p.clock.Load()))
		}
	}
	b.WriteString(tail)
	return b.String()
}
