// Package engine is the one wall-clock pcomm engine. It owns what every
// hardware-speed backend does the same way — per-(src, dst) mailboxes
// with FIFO-per-tag matching, the processor handle with its counters and
// trace spans, the collectives' rank-order fold, the blocked-state dump —
// and runs it under the shared pcomm.Supervisor. What differs between
// backends sits behind Transport: where ranks other than the local block
// live and how the P ranks of a collective meet. realcomm (all ranks in
// one process, a sense-reversing barrier over shared slots) and netcomm
// (a block of ranks per OS process, sockets and a coordinator) are the
// two transports.
//
// Payload slices pass by reference between co-located ranks (zero-copy);
// through the pcomm.RawComm fast path slice headers move without boxing
// into interface values.
package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/pcomm"
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
	GatherFloat64(p *Proc, v float64) []float64 // OpAllReduceF64
	GatherInt(p *Proc, v int) []int             // OpAllReduceInt
	Gather(p *Proc, op Op, v any) []any         // OpBarrier (v nil), OpAllGather

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

// World is one P-rank wall-clock run, hosting ranks [lo, hi). It
// implements pcomm.World; like every backend it is single-use.
type World struct {
	*pcomm.Supervisor
	t         Transport
	p, lo, hi int
	prefix    string
	noun      string
	boxes     []mailbox // index (dst-lo)*p + src
	procs     []*Proc   // index rank-lo
	start     time.Time
}

// New creates the engine for ranks [lo, hi) of a p-rank world over t.
// backend, prefix and noun name the backend as in pcomm.NewSupervisor.
func New(t Transport, backend, prefix, noun string, p, lo, hi int) *World {
	w := &World{t: t, p: p, lo: lo, hi: hi, prefix: prefix, noun: noun,
		boxes: make([]mailbox, (hi-lo)*p), procs: make([]*Proc, hi-lo)}
	w.Supervisor = pcomm.NewSupervisor(backend, prefix, noun, p, w.dump, w.abort)
	for i := range w.boxes {
		w.boxes[i].ch = make(chan Message, mailboxCap)
		w.boxes[i].bell.Init()
		w.boxes[i].stash = make([]Message, 0, stashCap)
	}
	for i := range w.procs {
		w.procs[i] = &Proc{id: lo + i, w: w}
	}
	return w
}

// NumProcs returns P — the world size, not this process's share of it.
func (w *World) NumProcs() int { return w.p }

// Run executes f on every locally hosted rank concurrently and returns
// the transport's Result once all have finished. If a rank panics, every
// blocked rank is woken and Run panics with a *pcomm.RunError.
func (w *World) Run(f func(pcomm.Comm)) (res pcomm.Result) {
	rec := w.Start()
	for _, p := range w.procs {
		p.tr = rec.Proc(p.id)
	}
	w.start = time.Now()
	w.Supervise(w.lo, w.hi, func(rank int) {
		p := w.procs[rank-w.lo]
		f(p)
		p.stats.Time = p.Time()
	}, func() {
		local := make([]pcomm.Stats, len(w.procs))
		for i, p := range w.procs {
			local[i] = p.stats
		}
		res = w.t.Finish(local)
	})
	return res
}

// abort wakes the ranks asleep on a mailbox so they unwind, then lets the
// transport do the same for those asleep in a collective.
func (w *World) abort(rank int, cause any) {
	for i := range w.boxes {
		w.boxes[i].bell.Ring()
	}
	w.t.Abort(rank, cause)
}

// Deliver feeds a message that arrived from src, a rank hosted elsewhere,
// into local rank dst's mailbox. One goroutine at a time per (src, dst).
func (w *World) Deliver(src, dst int, m Message) {
	w.boxes[(dst-w.lo)*w.p+src].put(m)
}

// dump renders every local rank's last published blocked state.
func (w *World) dump() string {
	head, tail := w.t.DumpFrame()
	var b strings.Builder
	b.WriteString(head)
	for _, p := range w.procs {
		fmt.Fprintf(&b, "\n  %s %d: %s", w.noun, p.id, renderBlocked(p.blocked.Load()))
	}
	b.WriteString(tail)
	return b.String()
}
