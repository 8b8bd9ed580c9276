// Package realcomm is the wall-clock shared-memory pcomm backend: P
// goroutines exchanging messages at hardware speed, with no cost model
// and no global lock.
//
// It is the engine's all-ranks-in-one-process transport: every
// destination is a co-located mailbox (internal/pcomm/engine), so all
// that lives here is the collective rendezvous — a sense-reversing
// barrier around per-rank deposit slots, which the engine folds in
// processor-rank order.
package realcomm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pcomm"
	"repro/internal/pcomm/engine"
)

// barrier is a sense-reversing barrier: arrivals of one generation
// capture the release channel of their sense before incrementing, the
// last arriver re-arms the other sense's channel and closes this one.
type barrier struct {
	size    int32
	count   atomic.Int32
	release [2]chan struct{}
}

// World is a P-processor shared-memory run. A World is single-use, like
// a machine.Machine.
type World struct {
	*engine.World
	bar barrier
	// Rendezvous deposit slots, indexed by rank. Scalar reductions use
	// the unboxed fvals/ivals arrays — depositing a float64 or int there
	// is a plain store, where boxing into vals would heap-allocate on
	// every collective — and Barrier/AllGather use the boxed slots.
	ops   []engine.Op
	vals  []any
	fvals []float64
	ivals []int
}

// New creates a real-backend world with p processors.
func New(p int) *World {
	if p < 1 {
		panic("realcomm: need at least one processor")
	}
	w := &World{
		ops:   make([]engine.Op, p),
		vals:  make([]any, p),
		fvals: make([]float64, p),
		ivals: make([]int, p),
	}
	w.bar.size = int32(p)
	w.bar.release[0] = make(chan struct{})
	w.bar.release[1] = make(chan struct{})
	w.World = engine.New(w, "real", "realcomm", "proc", p, 0, p)
	return w
}

// await passes the sense-reversing barrier; blocked is the wait state
// published for the watchdog dump. Every collective passes it exactly
// twice, so the sense is static: 0 to enter, 1 to leave.
//
//pilut:hotpath
func (w *World) await(p *engine.Proc, sense int, blocked uint64) {
	ch := w.bar.release[sense]
	if w.bar.count.Add(1) == w.bar.size {
		w.bar.count.Store(0)
		w.bar.release[1-sense] = make(chan struct{}) //pilutlint:ok hotalloc one channel per barrier generation is the sense-reversing protocol
		close(ch)
		return
	}
	p.Park(ch, blocked)
}

// enter is the first half of every collective rendezvous: deposit the op
// code, pass the phase-1 barrier, and verify all processors entered the
// same collective. Between enter and Release every deposit slot is stable
// and readable by everyone; Release (the phase-2 barrier) frees the slots
// for the next collective.
//
//pilut:hotpath
func (w *World) enter(p *engine.Proc, op engine.Op) {
	w.ops[p.ID()] = op
	w.await(p, 0, engine.Waiting(op, 0))
	for _, theirs := range w.ops {
		if theirs != op {
			panic(fmt.Sprintf("realcomm: collective mismatch: %q vs %q", theirs, op))
		}
	}
}

// GatherFloat64 implements engine.Transport over the unboxed slots, so
// the steady-state reduction allocates nothing.
//
//pilut:hotpath
func (w *World) GatherFloat64(p *engine.Proc, v float64) []float64 {
	w.fvals[p.ID()] = v
	w.enter(p, engine.OpAllReduceF64)
	return w.fvals
}

// GatherInt implements engine.Transport.
//
//pilut:hotpath
func (w *World) GatherInt(p *engine.Proc, v int) []int {
	w.ivals[p.ID()] = v
	w.enter(p, engine.OpAllReduceInt)
	return w.ivals
}

// Gather implements engine.Transport.
//
//pilut:hotpath
func (w *World) Gather(p *engine.Proc, op engine.Op, v any) []any {
	w.vals[p.ID()] = v
	w.enter(p, op)
	return w.vals
}

// Release implements engine.Transport.
//
//pilut:hotpath
func (w *World) Release(p *engine.Proc, op engine.Op) {
	w.await(p, 1, engine.Leaving(op))
}

// Ship implements engine.Transport; unreachable, since every rank is
// hosted here.
func (w *World) Ship(p *engine.Proc, dst int, m engine.Message) {
	panic(fmt.Sprintf("realcomm: rank %d is not hosted in this process", dst))
}

// Abort implements engine.Transport: there is no other process to tell,
// and every blocking wait already goes through Park.
func (w *World) Abort(rank int, cause any) {}

// Finish implements engine.Transport.
func (w *World) Finish(local []pcomm.Stats) pcomm.Result { return pcomm.NewResult(local) }

// DumpFrame implements engine.Transport.
func (w *World) DumpFrame() (head, tail string) {
	return fmt.Sprintf("P=%d processors:", w.NumProcs()), ""
}

var _ pcomm.World = (*World)(nil)
